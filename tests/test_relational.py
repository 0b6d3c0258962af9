"""Tests for the relational substrate: loop-lifted IterSeq."""

from repro.relational import IterSeq, expand_loop, unlift


class TestIterSeq:
    def test_lifted_constant(self):
        seq = IterSeq.lifted(["x"], [1, 2, 3])
        assert seq.items_for(2) == ["x"]
        assert seq.total_items() == 3

    def test_missing_iter_is_empty(self):
        seq = IterSeq.single(["x"], iteration=5)
        assert seq.items_for(1) == []

    def test_concat_per_iter(self):
        a = IterSeq({1: ["a1"], 2: ["a2"]})
        b = IterSeq({1: ["b1"]})
        c = a.concat(b)
        assert c.items_for(1) == ["a1", "b1"]
        assert c.items_for(2) == ["a2"]

    def test_equality_ignores_empty_iters(self):
        assert IterSeq({1: ["a"], 2: []}) == IterSeq({1: ["a"]})

    def test_paper_section41_example(self):
        """The $x/$y/$z loop-lifting example of §4.1."""
        outer_loop = [0]
        x_binding = IterSeq.single(["twenty", "thirty"])
        loop_x, outer_x, x_var, _ = expand_loop(x_binding, outer_loop)
        assert loop_x == [0, 1]

        y_binding = IterSeq.lifted(["one", "two"], loop_x)
        loop_y, outer_y, y_var, _ = expand_loop(y_binding, loop_x)
        assert loop_y == [0, 1, 2, 3]
        # $x relifted into the inner loop: "twenty" in iters 1-2 (paper
        # numbers iterations from 1; ours from 0).
        x_inner = x_var.relift(outer_y)
        assert [x_inner.items_for(q)[0] for q in loop_y] == [
            "twenty", "twenty", "thirty", "thirty"]
        assert [y_var.items_for(q)[0] for q in loop_y] == [
            "one", "two", "one", "two"]

        z = x_inner.concat(y_var)
        assert z.items_for(0) == ["twenty", "one"]
        assert z.items_for(3) == ["thirty", "two"]

        # return $z: unlift the body result through both loops
        result = unlift(unlift(z, outer_y), outer_x)
        assert result.items_for(0) == [
            "twenty", "one", "twenty", "two",
            "thirty", "one", "thirty", "two"]

    def test_expand_loop_positional(self):
        binding = IterSeq({7: ["a", "b"]})
        _loop, _outer, _var, pos = expand_loop(binding, [7])
        assert pos.items_for(0) == [1]
        assert pos.items_for(1) == [2]
