"""SVG plots: pinned bytes of every figure and of the CLI's `--format svg`."""

import contextlib
import hashlib
import io

import pytest

from fractalcalc import cli, figures, svg


def _sha256(text):
    return hashlib.sha256(text.encode()).hexdigest()


# SHA-256 of each figure's SVG text, keyed by (figure, depth of the prefractal)
_FIGURE_DIGESTS = {
    ("fig1", 4): "6e74cde39e7a0342667d895f27d0a098c61019d79e6075479c92756667beb91a",
    ("fig2", 4): "3f3d55cca749b5783f334f77392823d27b23011f4677f1f90993558a5fbf756b",
    ("fig3", 4): "ed471bb43e87e110f4941cdfccc81c82d86a273210f25cf9683a947a062e20dd",
    ("fig4", 4): "d405f7b52d840db5b48297a13602c16599784fe792bc808ffa69c691d936bfc3",
    ("fig5", 4): "29a14311f07b41247e6e5fc36c3ff359204f4577ee1782d6788413d0989fe075",
    ("fig6", 4): "4533ca7a0e851eecce79883b29bba712b07b15fffc966c98f495082b686332d5",
    ("fig7", 4): "aff66d7869848d569b530a88a8e3ac2bdd5ce9fa0d6bb1d3bad7f95db498d142",
    ("fig1", 0): "e41952e3eeb805d28da138e162d7b387cd298f4e9487140ff4acfd532ccc5903",
    ("fig1", 1): "b8fbdefe375537e9da057e9c37f13fe2853ead50c5440c78f778c26094a5c87a",
    ("fig1", 6): "ec369b0f14ce08fbf0bafe73c2ff0eedf31230ae857638745e8be3f0191031f0",
}

# SHA-256 of the stdout of `fractal-calc <args> --format svg`
_CLI_DIGESTS = {
    "staircase": "5ee4bf2a651677467519021afaabfb3214e3bc1b70104aa9f1553f770ca5044b",
    "staircase --grid 0.5 0.5 1": "9dc51697a4c30f37363542359d23e047936c4ad0be768e7106bec037e2499e56",
    "staircase --grid 0.5 0.5 3": "b589d273345358b68762c2395f8431a69e5d43168b22e98adde15f09d8fd91e8",
    "gamma": "9b8b362b44db80279008edc10b4182c08f1f74582193574cef36445c3eb0ab23",
    "ml": "cb799105a75ef9cb881dd74ec37850c7a5c871facd0482325f646091c526216a",
    "ml --grid 0 1e-14 3": "4c3b5e938c33e28f6e9a1c08a62b4a9145d47a541002c28f8891848f0f10c2ec",
    "beta": "5d214d4b31c1ae5d8ef472f19af3c63c4e4dab9ede33e9541b260fc8215464fe",
    "solve --example 3": "2ddd3e2719f95e23b33bf43c3d7d13ff6fef039ca00d735c829e82b6417621d9",
}


class TestPinnedBytes:
    @pytest.mark.parametrize("depth", [4, 0, 1, 6])
    def test_figures(self, depth):
        got = {(fig.name, depth): _sha256(fig.svg_text) for fig in figures.build_figures(depth)}
        want = {key: digest for key, digest in _FIGURE_DIGESTS.items() if key[1] == depth}
        assert {key: got[key] for key in want} == want

    @pytest.mark.parametrize("args", list(_CLI_DIGESTS))
    def test_cli(self, args):
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(args.split() + ["--format", "svg"])
        assert code == 0
        assert _sha256(out.getvalue()) == _CLI_DIGESTS[args]


class TestTicks:
    def test_a_step_under_the_float_spacing_ends_the_loop(self):
        # at 1e16 the float spacing is 2, so t += 1 leaves t where it is
        ticks = svg._tick_values(1e16, 1e16 + 4)
        assert ticks and len(ticks) == len(set(ticks))

    def test_the_cli_plots_a_grid_finer_than_its_ticks(self):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(
                ["staircase", "--grid", "1e16", "1.0000000000000004e16", "3", "--format", "svg"]
            )
        assert code == 0
        assert out.getvalue().count("<svg") == 1

    @pytest.mark.parametrize("x", ["1.7976931348623157e308", "-1.7976931348623157e308"])
    def test_the_cli_plots_one_point_at_the_largest_float(self, x):
        # widening the empty range by the float spacing there would reach inf
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(["staircase", "--grid", x, x, "1", "--format", "svg"])
        assert (code, err.getvalue()) == (0, "")
        assert out.getvalue().count("<svg") == out.getvalue().count("<circle") == 1

    def test_ticks_stay_in_the_range_and_zero_is_zero(self):
        # the first and last multiples of the step lie within 1e-9 steps of the range, yet outside it
        assert svg._tick_values(1e-10, 1 - 1e-10) == [0.25, 0.5, 0.75]
        # three steps of 0.1 from -0.3 leave -2.8e-17
        assert svg._tick_values(-0.3, 0.1)[3] == 0.0
