"""Pinned bytes of every figure's SVG plot and CSV files, and of the CLI's `--format svg`.

The CSV digests pin every value to its last bit, which the SVGs' 2-decimal
pixel coordinates can hide.
"""

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

# SHA-256 of each figure CSV file's text, keyed by (file name, depth of the prefractal)
_CSV_DIGESTS = {
    ("fig1.csv", 4): "05695226b358f750b0f508bae5a5e6a5b1b6bbb8b0385cc4107ad969c2f0bdb7",
    ("fig2.csv", 4): "883726c749e9ef877a8644de2fae91e1dbc07706c575349a920bd133a0eb6e03",
    ("fig3.csv", 4): "81a7052e5dd940ee7e21a6e471dc34a411b9756b07f424c716659b6edcfbde82",
    ("fig4_classical.csv", 4): "711d9fe6e74f97c533267777259a685b6edf990024577f3672c28dde64a11137",
    ("fig4_fractal.csv", 4): "0831ac7ff0deded825d6d95f282a909d11493e6ef8143bebb1be1685f4406167",
    ("fig5_classical.csv", 4): "24bdcb588e1e015050f3ff86c374e8a7b7a054428b0ea3084539c5ad9c1bcbcd",
    ("fig5_fractal.csv", 4): "ec7b4dc73a2ace76c7ff33b86f96eee42fc7077397c592eee9b5c64c4b4241fc",
    ("fig6_example1.csv", 4): "c155dfe7c52558e7e12c7c9d08526d160fb3c5535b2c0596e27a5a2eccbc4d4a",
    ("fig6_example2.csv", 4): "144f8c3ede81009a62af2663c2afae2da7438537fe485201f729482af13747d0",
    ("fig6_example3.csv", 4): "fa01e1666b301fa8bdc2404279ff5dfc20e22cc3e485c083794bf90c4197406d",
    ("fig7_example1.csv", 4): "3577344fe8d868c7962f15297777d6d52cc684c8e74ce2eb8d15d914f3d9d9fb",
    ("fig7_example2.csv", 4): "04d06a54159a9f1cecbf02def6c91f922a368e89997b762de128f2a4b63227ed",
    ("fig7_example3.csv", 4): "91e30c2f33f2840160333508310427f9e1eefbc71f971bc8663b6b3c0125695e",
    ("fig1.csv", 0): "630c06215ecf4a9223bce730c7e38d5da085fe8fad9dc5d462514d8eed289b31",
    ("fig1.csv", 1): "90d2870741abf1536864ec93b06a1318d23b070452f0acd00b9fa543b512463d",
    ("fig1.csv", 6): "a978367468acdeecd73a935499bf75ae7cfbdbcb6fed4ca8e1f7933fcd1fd3a3",
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

    @pytest.mark.parametrize("depth", [4, 0, 1, 6])
    def test_figure_csvs(self, depth):
        got = {
            (fname, depth): _sha256(text)
            for fig in figures.build_figures(depth)
            for fname, text in fig.csv_files
        }
        want = {key: digest for key, digest in _CSV_DIGESTS.items() if key[1] == depth}
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
