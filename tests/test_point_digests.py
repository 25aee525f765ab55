"""The point layer's bits, pinned.

sha256 digests of the `float.hex` of every batch entry's outputs (and of
the one-row wrappers' on a subsample) on the mixed batches of
`test_locate`, for each chart, scheme and extension spec at three (n, s),
and the text of the errors of a non-finite row and an off-chart row.  Any
change to how a point batch is screened, measured or dispatched that moves
a bit of an output changes a digest.  Each entry runs on the rows it
accepts, chosen by the public region and gap functions.
"""

import hashlib
import math
from functools import partial

import numpy as np
import pytest

from cuspreflect import extension, reflections
from cuspreflect.errors import ChartDomainError
from cuspreflect.geometry import (
    ChartId,
    CuspParams,
    Point,
    chart_regions,
    classify,
    classify_profile,
    on_cusp_wall,
    radii,
)
from cuspreflect.reflections import fd_step, piece_gaps, piece_index

from test_locate import PARAMS, SPECS, mixed_batch, probe, ref_eval_site


def digest(*arrays) -> str:
    """sha256 of the float.hex (or, for labels, the value) of every entry."""
    h = hashlib.sha256()
    for a in arrays:
        for v in np.asarray(a).ravel().tolist():
            h.update((v.value if hasattr(v, "value") else float.hex(float(v))).encode() + b"\n")
    return h.hexdigest()[:16]


def own_gaps(chart, params, t, r):
    """Piece index and the (interface, kink) gaps of each point's own piece;
    -inf off the chart."""
    idx = piece_index(chart, params, t, r)
    interface, kink = np.full(t.size, -np.inf), np.full(t.size, -np.inf)
    for i, label in enumerate(chart_regions(chart)):
        m = idx == i
        interface[m], kink[m] = piece_gaps(label, params, t[m], r[m])
    return idx, interface, kink


def image_of(chart, params, t, r):
    """Whether each point lies in the chart's image, or on the cusp wall."""
    source = ChartId.R1Outer if chart is ChartId.R1Inner else ChartId.R1Inner
    return on_cusp_wall(params, t, r) | (piece_index(source, params, t, r) >= 0)


def point_digests(params) -> dict:
    t, X = mixed_batch(params)
    r = radii(X)
    out = {}
    for scheme in ("R1", "R2"):
        out[f"classify_profile {scheme}"] = digest(classify_profile(params, scheme, t, r))
        out[f"classify {scheme}"] = digest([classify(params, scheme, (t[i], X[i]))
                                            for i in range(0, t.size, 7)])
    for chart in ChartId:
        wall = on_cusp_wall(params, t, r)
        idx, interface, kink = own_gaps(chart, params, t, r)
        on = np.flatnonzero(wall | (idx >= 0))
        out[f"apply_points {chart.value}"] = digest(
            *reflections.apply_points(chart, params, t[on], X[on]))
        out[f"apply {chart.value}"] = digest(*(
            reflections.apply(chart, params, (t[i], X[i])).as_array() for i in on[::11]))
        inside = np.flatnonzero(~wall & (idx >= 0) & (interface > 0.0))
        out[f"differential_points {chart.value}"] = digest(
            *reflections.differential_points(chart, params, t[inside], X[inside]))
        jets = [reflections.differential(chart, params, (t[i], X[i])) for i in inside[::11]]
        out[f"differential {chart.value}"] = digest(*(
            np.concatenate([j.image.as_array(), j.differential.ravel(), [j.det, j.opnorm]])
            for j in jets))
        room = np.flatnonzero((idx >= 0) & (np.minimum(interface, kink) > 2.0 * fd_step(t, r)))
        out[f"differential_fd_points {chart.value}"] = digest(
            reflections.differential_fd_points(chart, params, t[room], X[room]))
        out[f"differential_fd {chart.value}"] = digest(*(
            reflections.differential_fd(chart, params, (t[i], X[i])) for i in room[::23]))
        image = np.flatnonzero(image_of(chart, params, t, r))
        out[f"invert_points {chart.value}"] = digest(
            *reflections.invert_points(chart, params, t[image], X[image]))
        out[f"invert {chart.value}"] = digest(*(
            reflections.invert(chart, params, (t[i], X[i])).as_array() for i in image[::11]))
    psi = extension.cutoff_psi_points(params, t, X)
    out["cutoff_psi_points"] = digest(psi)
    out["cutoff_psi"] = digest([extension.cutoff_psi(params, (t[i], X[i]))
                                for i in range(0, t.size, 7)])
    for spec in SPECS:
        name = f"{spec.scheme} {spec.direction.value}"
        u = probe(spec)
        site, chart, _, _ = ref_eval_site(spec, params, t, X)
        reach = np.flatnonzero(site >= 0)
        out[f"extend_eval_points {name}"] = digest(
            extension.extend_eval_points(spec, params, u, t[reach], X[reach]))
        out[f"extend_eval {name}"] = digest([extension.extend_eval(spec, params, u, (t[i], X[i]))
                                             for i in reach[::11]])
        idx, interface, _ = own_gaps(chart, params, t, r)
        smooth = np.flatnonzero((site == 1) | ((site == 2) & (idx >= 0) & (interface > 0.0)))
        out[f"extend_gradient_points {name}"] = digest(
            extension.extend_gradient_points(spec, params, u, t[smooth], X[smooth]))
        out[f"extend_gradient {name}"] = digest(*(
            extension.extend_gradient(spec, params, u, (t[i], X[i])) for i in smooth[::11]))
        cut = np.flatnonzero((psi == 0.0) | (site >= 0))
        out[f"extend_global_points {name}"] = digest(
            extension.extend_global_points(spec, params, u, t[cut], X[cut]))
    return out


# The first 16 hex digits of each digest at each (n, s) of PARAMS.
_PINNED = {
    (3, 2.0): {
        "classify_profile R1": "ae49946d66d37f9f",
        "classify R1": "741509327122af0f",
        "classify_profile R2": "c4904ef3892321f4",
        "classify R2": "fe58e91e551b7bc4",
        "apply_points R1Outer": "7986468706635a92",
        "apply R1Outer": "44a888198ec3f283",
        "differential_points R1Outer": "2dfed0a77b9c4bf4",
        "differential R1Outer": "7b5f99071383c537",
        "differential_fd_points R1Outer": "4ebbd0e5fc1cb15e",
        "differential_fd R1Outer": "b6690978a25e7058",
        "invert_points R1Outer": "18f00502e4cea522",
        "invert R1Outer": "cd27ba18cdcfccf1",
        "apply_points R1Inner": "e8dec73e59f68c61",
        "apply R1Inner": "e8fdb36949f439f0",
        "differential_points R1Inner": "fb85130e7e5522d2",
        "differential R1Inner": "4a43c398b51d1282",
        "differential_fd_points R1Inner": "dfb1878861e0ca7b",
        "differential_fd R1Inner": "9e412039ca2ff550",
        "invert_points R1Inner": "29236ea29e4673b9",
        "invert R1Inner": "9f374d8bf0abc583",
        "apply_points R2Outer": "2c6626e977f43ddd",
        "apply R2Outer": "4cc9c981a01dd95e",
        "differential_points R2Outer": "1005a9cac1f30dfb",
        "differential R2Outer": "d22f76a1556fd2e1",
        "differential_fd_points R2Outer": "e1214c92a557de7d",
        "differential_fd R2Outer": "af647dbdb2c29311",
        "invert_points R2Outer": "c3048256c21784c2",
        "invert R2Outer": "2d97ceb6011cce1c",
        "cutoff_psi_points": "f5a201fad0ec0e05",
        "cutoff_psi": "09bc42da347fe628",
        "extend_eval_points R1 FromInside": "66b6cad6bbc4b066",
        "extend_eval R1 FromInside": "ded86e31513a99db",
        "extend_gradient_points R1 FromInside": "5f7865fbe32982cf",
        "extend_gradient R1 FromInside": "36e4e37fd76e7748",
        "extend_global_points R1 FromInside": "15b986461e9add11",
        "extend_eval_points R1 FromOutside": "b691572073764125",
        "extend_eval R1 FromOutside": "03d93c4c79bbe6f2",
        "extend_gradient_points R1 FromOutside": "f42cd7dd76c4b4ee",
        "extend_gradient R1 FromOutside": "0a5d8f499145df65",
        "extend_global_points R1 FromOutside": "2824fa830a15fb62",
        "extend_eval_points R2 FromInside": "08cc7b91141e3827",
        "extend_eval R2 FromInside": "f0d3db21c172e9d1",
        "extend_gradient_points R2 FromInside": "e2f329081ee93d06",
        "extend_gradient R2 FromInside": "c30d207156fec616",
        "extend_global_points R2 FromInside": "5cd6e9ef8c6cabec",
    },
    (4, 1.5): {
        "classify_profile R1": "837dda283f958f09",
        "classify R1": "d5e87f956b6492c2",
        "classify_profile R2": "aefa6b0746240728",
        "classify R2": "10dd2198a4f8650a",
        "apply_points R1Outer": "8556bb65e00dc5c9",
        "apply R1Outer": "6579ababb19a1b4f",
        "differential_points R1Outer": "a0e58776e3744a39",
        "differential R1Outer": "b2a50ea914409696",
        "differential_fd_points R1Outer": "2298c60baebad411",
        "differential_fd R1Outer": "52ba4bf8c3629f88",
        "invert_points R1Outer": "49125af51571af3f",
        "invert R1Outer": "262d56394586fbed",
        "apply_points R1Inner": "c2bd5a5a30660be5",
        "apply R1Inner": "a7a78d4188bdbfc7",
        "differential_points R1Inner": "9ab70c8846f0b4ac",
        "differential R1Inner": "bc23cabf0e9a0e13",
        "differential_fd_points R1Inner": "509608af3c7f2715",
        "differential_fd R1Inner": "60acbdad6d44f639",
        "invert_points R1Inner": "c757f89de5de1058",
        "invert R1Inner": "9ffe073ddca540db",
        "apply_points R2Outer": "f129a2b690f69104",
        "apply R2Outer": "85b155e4568ffd4e",
        "differential_points R2Outer": "abbb723fad141fa9",
        "differential R2Outer": "54a97b683f6e80ce",
        "differential_fd_points R2Outer": "d88d32c0f9dc3c5f",
        "differential_fd R2Outer": "88841da0937265ff",
        "invert_points R2Outer": "5fa92f240b3b894b",
        "invert R2Outer": "b976b542ea77b934",
        "cutoff_psi_points": "5b6ea07aae02d99f",
        "cutoff_psi": "081b418ab1b12432",
        "extend_eval_points R1 FromInside": "a65babc849847339",
        "extend_eval R1 FromInside": "8a4c407623a19c4b",
        "extend_gradient_points R1 FromInside": "14eba263e5793f80",
        "extend_gradient R1 FromInside": "99237ecc435b5d87",
        "extend_global_points R1 FromInside": "d37b914474e8d1e2",
        "extend_eval_points R1 FromOutside": "debfe424af772267",
        "extend_eval R1 FromOutside": "2544ab963b9c1d8a",
        "extend_gradient_points R1 FromOutside": "755833d55e1be0b2",
        "extend_gradient R1 FromOutside": "db725b22116f1c4b",
        "extend_global_points R1 FromOutside": "84d0e7b1a0de6dfa",
        "extend_eval_points R2 FromInside": "18e93e43e74fbb04",
        "extend_eval R2 FromInside": "1e7fd5a1fc25137e",
        "extend_gradient_points R2 FromInside": "ce9f8fb70410fecb",
        "extend_gradient R2 FromInside": "112a567d8d9db9bc",
        "extend_global_points R2 FromInside": "fafa074a0b0fb673",
    },
    (3, 3.0): {
        "classify_profile R1": "ef8b97bb74d20c1e",
        "classify R1": "85ba20b143e90653",
        "classify_profile R2": "040f2249c5529444",
        "classify R2": "1c9c11969a450ffc",
        "apply_points R1Outer": "75aef42169b0cae7",
        "apply R1Outer": "c2e8b5003a9b55f2",
        "differential_points R1Outer": "9dd3891a8b7cfc2f",
        "differential R1Outer": "aabfe48ba483d51a",
        "differential_fd_points R1Outer": "43cba4e3ad164b51",
        "differential_fd R1Outer": "5b3b03da2768a733",
        "invert_points R1Outer": "e5e809e862fdb91d",
        "invert R1Outer": "ad0108c5105a8924",
        "apply_points R1Inner": "63aceca548c834ca",
        "apply R1Inner": "d3f353e395a4d8cd",
        "differential_points R1Inner": "a71c2735a5e4071a",
        "differential R1Inner": "d2872f88aa4e36aa",
        "differential_fd_points R1Inner": "6d288e72f5a05a61",
        "differential_fd R1Inner": "43f720fc62b62cf0",
        "invert_points R1Inner": "acd1966ed7a4087e",
        "invert R1Inner": "343b8fc036261acb",
        "apply_points R2Outer": "3abebd609d09abfb",
        "apply R2Outer": "441ef50967a6088b",
        "differential_points R2Outer": "8239dd68d73a1e94",
        "differential R2Outer": "00a1d1dd23604b03",
        "differential_fd_points R2Outer": "1a2ad40b1b38ecb8",
        "differential_fd R2Outer": "33250d5f071b35c5",
        "invert_points R2Outer": "6168fcfdff483a5b",
        "invert R2Outer": "06c3f32bd7b1914f",
        "cutoff_psi_points": "f94c564c61cd89ea",
        "cutoff_psi": "3e598d7b11cb1391",
        "extend_eval_points R1 FromInside": "4e6ad0dbc0e31c50",
        "extend_eval R1 FromInside": "dbf0585889b68504",
        "extend_gradient_points R1 FromInside": "ed09aa865bf2ec4a",
        "extend_gradient R1 FromInside": "5926c26084be0efc",
        "extend_global_points R1 FromInside": "3131b406a494192c",
        "extend_eval_points R1 FromOutside": "0fd6fa99ddea35bf",
        "extend_eval R1 FromOutside": "83176ca5523eb24f",
        "extend_gradient_points R1 FromOutside": "730e200af1c54483",
        "extend_gradient R1 FromOutside": "e1be277edb9af624",
        "extend_global_points R1 FromOutside": "fa11ddea3e43a3bb",
        "extend_eval_points R2 FromInside": "f9f3bef47e7a3437",
        "extend_eval R2 FromInside": "bda6eddf7ab6a990",
        "extend_gradient_points R2 FromInside": "fc989f45e3a9015b",
        "extend_gradient R2 FromInside": "e27001a7b83ac67b",
        "extend_global_points R2 FromInside": "6ecb74384a2407b4",
    },
}


@pytest.mark.parametrize("n,s", PARAMS)
def test_point_layer_digests(n, s):
    assert point_digests(CuspParams(n, s)) == _PINNED[(n, s)]


_BAD_ROWS = {
    "non-finite": ([-0.25, -0.2, -0.3], [[0.1, 0.0], [0.05, math.nan], [0.1, 0.0]]),
    "non-finite one-row": ([math.inf], [[0.05, 0.02]]),
    "off-chart": ([-0.25, 0.9, -0.3], [[0.1, 0.0], [0.5, 0.0], [0.1, 0.0]]),
    "off-chart clipped": ([-0.25, -0.1], [[0.1, 0.0], [1e300, -3.0]]),
    "off-chart one-row": ([0.05], [[1e-170, 0.0]]),
    "off-chart one-row huge": ([0.3], [[1e300, 1e300]]),
}


def error_texts(params) -> dict:
    """The error text of each bad batch at every batch entry that takes it,
    "-" where the entry accepts the batch."""
    entries = {f"{name} {chart.value}": partial(getattr(reflections, name), chart, params)
               for chart in ChartId
               for name in ("apply_points", "differential_points", "differential_fd_points",
                            "invert_points")}
    for spec in SPECS:
        name = f"{spec.scheme} {spec.direction.value}"
        for entry in ("extend_eval_points", "extend_gradient_points", "extend_global_points"):
            entries[f"{entry} {name}"] = partial(getattr(extension, entry), spec, params,
                                                 probe(spec))
    entries["cutoff_psi_points"] = partial(extension.cutoff_psi_points, params)
    for scheme in ("R1", "R2"):
        entries[f"classify {scheme}"] = lambda t, X, scheme=scheme: [
            classify(params, scheme, Point(ti, xi)) for ti, xi in zip(t, X)]
    out = {}
    for case, (t, X) in _BAD_ROWS.items():
        for name, call in entries.items():
            try:
                call(np.array(t), np.array(X))
                out[f"{case} {name}"] = "-"
            except (ValueError, ChartDomainError) as exc:
                out[f"{case} {name}"] = str(exc)
    return out


# sha256 of the sorted "case entry: text" lines of `error_texts` at n = 3, s = 2.
_PINNED_ERRORS = "21fd2decc180361accd2079031488d91d94915fbd6dac5842de9863e8a9f609a"


def test_bad_row_error_texts(params):
    texts = error_texts(params)
    lines = "\n".join(f"{k}: {v}" for k, v in sorted(texts.items()))
    assert hashlib.sha256(lines.encode()).hexdigest() == _PINNED_ERRORS
    # a few of the pinned texts in full, so that the digest pins what it says
    assert texts["non-finite apply_points R1Outer"] == (
        "row 1 of the point batch has non-finite coordinates [-0.2, 0.05, nan]")
    assert texts["non-finite one-row invert_points R2Outer"] == (
        "row 0 of the point batch has non-finite coordinates [inf, 0.05, 0.02]")
    assert texts["off-chart apply_points R1Outer"] == (
        "point Point(t=0.9, x=(0.5,0)) is outside the domain of R1Outer: it classifies to "
        "CuspInterior")
    assert "x=(3.27339e+150,-3)" in texts["off-chart clipped apply_points R2Outer"]


# ---------------------------------------------------------------------------
# One-piece batches: every piece and image band of each chart, and every
# evaluation site (and, on the chart side, every piece) of each extension,
# as a batch of its own
# ---------------------------------------------------------------------------

# Each chart's image bands in units of t^s on the cusp core, for the outer
# charts; the inner chart's image bands are the R1 collar pieces.
_BAND_EDGES = {ChartId.R1Outer: (0.0, 1.0 / 6.0, 0.5, 1.0), ChartId.R2Outer: (0.0, 0.5, 1.0)}


def image_bands(chart, params, t, r) -> list:
    """Rows of each image band of the chart, off its edges by a relative
    1e-9, so that each is one band of `invert_points` whatever the ties."""
    if chart is ChartId.R1Inner:
        idx, interface, _ = own_gaps(ChartId.R1Outer, params, t, r)
        return [np.flatnonzero((idx == i) & (interface > 1e-9)) for i in range(3)]
    ts = np.abs(t) ** params.s
    core = (0.0 < t) & (t <= 0.5)
    edges = _BAND_EDGES[chart]
    return [np.flatnonzero(core & (r > lo * ts * (1.0 + 1e-9)) & (r < hi * ts * (1.0 - 1e-9)))
            for lo, hi in zip(edges, edges[1:])]


def one_piece_digests(params) -> dict:
    t, X = mixed_batch(params)
    r = radii(X)
    out = {}
    for chart in ChartId:
        wall = on_cusp_wall(params, t, r)
        idx, interface, kink = own_gaps(chart, params, t, r)
        for i, label in enumerate(chart_regions(chart)):
            name = f"{chart.value} {label.value}"
            piece = np.flatnonzero(~wall & (idx == i))
            inside = np.flatnonzero(~wall & (idx == i) & (interface > 0.0))
            room = np.flatnonzero((idx == i) & (np.minimum(interface, kink) > 2.0 * fd_step(t, r)))
            assert min(piece.size, inside.size, room.size) >= 5, name
            out[f"apply_points {name}"] = digest(
                *reflections.apply_points(chart, params, t[piece], X[piece]))
            out[f"differential_points {name}"] = digest(
                *reflections.differential_points(chart, params, t[inside], X[inside]))
            out[f"differential_fd_points {name}"] = digest(
                reflections.differential_fd_points(chart, params, t[room], X[room]))
        for b, band in enumerate(image_bands(chart, params, t, r)):
            assert band.size >= 5, (chart, b)
            out[f"invert_points {chart.value} band {b}"] = digest(
                *reflections.invert_points(chart, params, t[band], X[band]))
    for spec in SPECS:
        name = f"{spec.scheme} {spec.direction.value}"
        u = probe(spec)
        site, chart, _, _ = ref_eval_site(spec, params, t, X)
        idx = piece_index(chart, params, t, r)
        batches = {f"site {key}": np.flatnonzero(site == key) for key in (0, 1)}
        batches |= {f"site 2 {label.value}": np.flatnonzero((site == 2) & (idx == i))
                    for i, label in enumerate(chart_regions(chart))}
        for key, rows in batches.items():
            assert rows.size >= 5, (name, key)
            out[f"extend_eval_points {name} {key}"] = digest(
                extension.extend_eval_points(spec, params, u, t[rows], X[rows]))
            out[f"extend_global_points {name} {key}"] = digest(
                extension.extend_global_points(spec, params, u, t[rows], X[rows]))
    return out


@pytest.mark.parametrize("n,s", PARAMS)
def test_one_piece_digests(n, s):
    assert one_piece_digests(CuspParams(n, s)) == _PINNED_ONE_PIECE[(n, s)]


# The first 16 hex digits of each one-piece digest at each (n, s) of PARAMS.
_PINNED_ONE_PIECE = {
    (3, 2.0): {
        "apply_points R1Outer RegionA": "92fb857a45ae0809",
        "differential_points R1Outer RegionA": "e4a5ceae4ab4e143",
        "differential_fd_points R1Outer RegionA": "c600c3404fa7ad30",
        "apply_points R1Outer RegionB": "3565d20b67c010df",
        "differential_points R1Outer RegionB": "60946543aea1650c",
        "differential_fd_points R1Outer RegionB": "012ead32dff6d272",
        "apply_points R1Outer RegionC": "386d246fe713bd24",
        "differential_points R1Outer RegionC": "6091594b3a9a69fe",
        "differential_fd_points R1Outer RegionC": "ecbb0236570df530",
        "invert_points R1Outer band 0": "3a08aab6c2e58dd9",
        "invert_points R1Outer band 1": "725c5c0139ddcda4",
        "invert_points R1Outer band 2": "0deaa7a1094a3bc7",
        "apply_points R1Inner InnerPiece1": "9537ecac9d207f0c",
        "differential_points R1Inner InnerPiece1": "d24f0be730a286d5",
        "differential_fd_points R1Inner InnerPiece1": "0415ac96f50a49fd",
        "apply_points R1Inner InnerPiece2": "f278f9ba4c6b8315",
        "differential_points R1Inner InnerPiece2": "c1ff0008b0606df9",
        "differential_fd_points R1Inner InnerPiece2": "0aed88a49dbde9bb",
        "apply_points R1Inner InnerPiece3": "8803ea77e5b5fe5e",
        "differential_points R1Inner InnerPiece3": "131b0dcd99271d2a",
        "differential_fd_points R1Inner InnerPiece3": "a3552e6bfb90f597",
        "invert_points R1Inner band 0": "cbc8ce849f646f3e",
        "invert_points R1Inner band 1": "d569fa7797cd8c59",
        "invert_points R1Inner band 2": "8d72bbfda0eac088",
        "apply_points R2Outer RegionD": "b6312de91c12d7f4",
        "differential_points R2Outer RegionD": "e19d35be68986288",
        "differential_fd_points R2Outer RegionD": "0a4600dcbc60bfae",
        "apply_points R2Outer RegionE": "11a13c1d3b3f3332",
        "differential_points R2Outer RegionE": "af528dbed400e61e",
        "differential_fd_points R2Outer RegionE": "60cc0968c8d0d7d0",
        "invert_points R2Outer band 0": "545ad81ad9fdbbf3",
        "invert_points R2Outer band 1": "7035cc17222ac526",
        "extend_eval_points R1 FromInside site 0": "7bb428c5bc8caeb2",
        "extend_global_points R1 FromInside site 0": "7bb428c5bc8caeb2",
        "extend_eval_points R1 FromInside site 1": "064765e5163a8e8b",
        "extend_global_points R1 FromInside site 1": "064765e5163a8e8b",
        "extend_eval_points R1 FromInside site 2 RegionA": "cc636f9581c983d5",
        "extend_global_points R1 FromInside site 2 RegionA": "bb7db5919698c013",
        "extend_eval_points R1 FromInside site 2 RegionB": "c7f7e6dd52f2e04e",
        "extend_global_points R1 FromInside site 2 RegionB": "9813a798b31bf4e8",
        "extend_eval_points R1 FromInside site 2 RegionC": "133da37354b5f94c",
        "extend_global_points R1 FromInside site 2 RegionC": "1665e4c73b0e40a7",
        "extend_eval_points R1 FromOutside site 0": "62510aa7f512acb4",
        "extend_global_points R1 FromOutside site 0": "62510aa7f512acb4",
        "extend_eval_points R1 FromOutside site 1": "262435fa4b1af712",
        "extend_global_points R1 FromOutside site 1": "c390378348ba8741",
        "extend_eval_points R1 FromOutside site 2 InnerPiece1": "7fb60072deb2cc75",
        "extend_global_points R1 FromOutside site 2 InnerPiece1": "7fb60072deb2cc75",
        "extend_eval_points R1 FromOutside site 2 InnerPiece2": "a74212423ff89513",
        "extend_global_points R1 FromOutside site 2 InnerPiece2": "a74212423ff89513",
        "extend_eval_points R1 FromOutside site 2 InnerPiece3": "f9cc795937f1e00d",
        "extend_global_points R1 FromOutside site 2 InnerPiece3": "f9cc795937f1e00d",
        "extend_eval_points R2 FromInside site 0": "7bb428c5bc8caeb2",
        "extend_global_points R2 FromInside site 0": "7bb428c5bc8caeb2",
        "extend_eval_points R2 FromInside site 1": "064765e5163a8e8b",
        "extend_global_points R2 FromInside site 1": "064765e5163a8e8b",
        "extend_eval_points R2 FromInside site 2 RegionD": "f4fc446213fa8731",
        "extend_global_points R2 FromInside site 2 RegionD": "cd4dede605ec3910",
        "extend_eval_points R2 FromInside site 2 RegionE": "864d95cd1e6061b3",
        "extend_global_points R2 FromInside site 2 RegionE": "4c97e77900d84fb0",
    },
    (4, 1.5): {
        "apply_points R1Outer RegionA": "d7002d49a9276e1c",
        "differential_points R1Outer RegionA": "6d1b197ef84a5dbc",
        "differential_fd_points R1Outer RegionA": "526f03a655a2138a",
        "apply_points R1Outer RegionB": "ab6b4fe73af3786a",
        "differential_points R1Outer RegionB": "b14267f24f5a30bb",
        "differential_fd_points R1Outer RegionB": "7fd945e4fa1a83ad",
        "apply_points R1Outer RegionC": "1508e4f2427fa066",
        "differential_points R1Outer RegionC": "96ccc389c1e22bf5",
        "differential_fd_points R1Outer RegionC": "38a5a78eb01e1649",
        "invert_points R1Outer band 0": "fec1cbd688db8d1d",
        "invert_points R1Outer band 1": "60f9f68f8e2b429f",
        "invert_points R1Outer band 2": "78d4bdaf62b160db",
        "apply_points R1Inner InnerPiece1": "6566cff12d9028be",
        "differential_points R1Inner InnerPiece1": "a4fecdd7dd58a377",
        "differential_fd_points R1Inner InnerPiece1": "8643bb684be5d3ab",
        "apply_points R1Inner InnerPiece2": "394da77b6164497b",
        "differential_points R1Inner InnerPiece2": "30a91695c74fdad9",
        "differential_fd_points R1Inner InnerPiece2": "1d24cdc786d3f79f",
        "apply_points R1Inner InnerPiece3": "1df38a171e9d9c49",
        "differential_points R1Inner InnerPiece3": "a00c960af1ee31f3",
        "differential_fd_points R1Inner InnerPiece3": "7dd529638df211e7",
        "invert_points R1Inner band 0": "969c12117487ed38",
        "invert_points R1Inner band 1": "7b6d8b0b89fbf751",
        "invert_points R1Inner band 2": "5e47cf79bd296b4a",
        "apply_points R2Outer RegionD": "a8035e1b7828a237",
        "differential_points R2Outer RegionD": "da247170d43079b5",
        "differential_fd_points R2Outer RegionD": "66489c1d5ac8e7bf",
        "apply_points R2Outer RegionE": "7364b4b6f016b4af",
        "differential_points R2Outer RegionE": "5562fa21b4c84a25",
        "differential_fd_points R2Outer RegionE": "8c0ea972ab949a53",
        "invert_points R2Outer band 0": "a1581bd0aed634ca",
        "invert_points R2Outer band 1": "a1e11d283ae80f57",
        "extend_eval_points R1 FromInside site 0": "3937c5ce2478c457",
        "extend_global_points R1 FromInside site 0": "3937c5ce2478c457",
        "extend_eval_points R1 FromInside site 1": "412dd4431737ced4",
        "extend_global_points R1 FromInside site 1": "412dd4431737ced4",
        "extend_eval_points R1 FromInside site 2 RegionA": "5fc69db8edab5823",
        "extend_global_points R1 FromInside site 2 RegionA": "34ea2479fa8afd09",
        "extend_eval_points R1 FromInside site 2 RegionB": "2c7ecd7fa9041ca6",
        "extend_global_points R1 FromInside site 2 RegionB": "f66230a0f23e7e0f",
        "extend_eval_points R1 FromInside site 2 RegionC": "cc1c8e8f7336fcd0",
        "extend_global_points R1 FromInside site 2 RegionC": "736d8a8fa746abb9",
        "extend_eval_points R1 FromOutside site 0": "62510aa7f512acb4",
        "extend_global_points R1 FromOutside site 0": "62510aa7f512acb4",
        "extend_eval_points R1 FromOutside site 1": "a7178cbd9abd7185",
        "extend_global_points R1 FromOutside site 1": "f65c9bd4c3e8781d",
        "extend_eval_points R1 FromOutside site 2 InnerPiece1": "af7be8b375626060",
        "extend_global_points R1 FromOutside site 2 InnerPiece1": "af7be8b375626060",
        "extend_eval_points R1 FromOutside site 2 InnerPiece2": "65217ad8c6d7a20f",
        "extend_global_points R1 FromOutside site 2 InnerPiece2": "65217ad8c6d7a20f",
        "extend_eval_points R1 FromOutside site 2 InnerPiece3": "d37c1ceeaf53b443",
        "extend_global_points R1 FromOutside site 2 InnerPiece3": "d37c1ceeaf53b443",
        "extend_eval_points R2 FromInside site 0": "3937c5ce2478c457",
        "extend_global_points R2 FromInside site 0": "3937c5ce2478c457",
        "extend_eval_points R2 FromInside site 1": "412dd4431737ced4",
        "extend_global_points R2 FromInside site 1": "412dd4431737ced4",
        "extend_eval_points R2 FromInside site 2 RegionD": "c06e5269caaf6113",
        "extend_global_points R2 FromInside site 2 RegionD": "21c11d14993fe206",
        "extend_eval_points R2 FromInside site 2 RegionE": "70550a9b78aa28dd",
        "extend_global_points R2 FromInside site 2 RegionE": "c3ffacaca8581423",
    },
    (3, 3.0): {
        "apply_points R1Outer RegionA": "89baba99920db462",
        "differential_points R1Outer RegionA": "f5449edcbcce7c9e",
        "differential_fd_points R1Outer RegionA": "08fd160b85ac1c8c",
        "apply_points R1Outer RegionB": "275719ff430e7f3e",
        "differential_points R1Outer RegionB": "87c75dac8e35743d",
        "differential_fd_points R1Outer RegionB": "7b09cac7f06326e0",
        "apply_points R1Outer RegionC": "288387cc62fa7e82",
        "differential_points R1Outer RegionC": "d70e8e44d3827147",
        "differential_fd_points R1Outer RegionC": "f4a0448bd9900b82",
        "invert_points R1Outer band 0": "900a2ac9d783b3b8",
        "invert_points R1Outer band 1": "4aa3fb69106eae72",
        "invert_points R1Outer band 2": "f4f38f130fa5eecc",
        "apply_points R1Inner InnerPiece1": "179939e22d7904eb",
        "differential_points R1Inner InnerPiece1": "aba440e0b3383cbe",
        "differential_fd_points R1Inner InnerPiece1": "5ce68da7d540baac",
        "apply_points R1Inner InnerPiece2": "068ed7dc98bfa775",
        "differential_points R1Inner InnerPiece2": "ea72cd5b1a63950a",
        "differential_fd_points R1Inner InnerPiece2": "ffbb8969e1342b66",
        "apply_points R1Inner InnerPiece3": "3443222ca258dd06",
        "differential_points R1Inner InnerPiece3": "65129e576a467a0a",
        "differential_fd_points R1Inner InnerPiece3": "8d6f77f4064988f6",
        "invert_points R1Inner band 0": "a523bb755a7e35d6",
        "invert_points R1Inner band 1": "5a177fff98c0b251",
        "invert_points R1Inner band 2": "197c43536c6e8393",
        "apply_points R2Outer RegionD": "19645a439b3ab99b",
        "differential_points R2Outer RegionD": "2787ebedfb05518f",
        "differential_fd_points R2Outer RegionD": "095fe2437a231c03",
        "apply_points R2Outer RegionE": "65676aa4e6cb21b7",
        "differential_points R2Outer RegionE": "7e6c094360ed9663",
        "differential_fd_points R2Outer RegionE": "3f85cba968cfdab6",
        "invert_points R2Outer band 0": "c848b0a1449c136a",
        "invert_points R2Outer band 1": "e0b65a23ffc635cb",
        "extend_eval_points R1 FromInside site 0": "c2c81566bf685ded",
        "extend_global_points R1 FromInside site 0": "c2c81566bf685ded",
        "extend_eval_points R1 FromInside site 1": "d9f95554688c9dda",
        "extend_global_points R1 FromInside site 1": "d9f95554688c9dda",
        "extend_eval_points R1 FromInside site 2 RegionA": "dbd68bdbf2923b37",
        "extend_global_points R1 FromInside site 2 RegionA": "d9bfe5471e0d8e50",
        "extend_eval_points R1 FromInside site 2 RegionB": "6386088470e73f9d",
        "extend_global_points R1 FromInside site 2 RegionB": "9306f807700a0766",
        "extend_eval_points R1 FromInside site 2 RegionC": "1c665dd41c0a6701",
        "extend_global_points R1 FromInside site 2 RegionC": "d0da4446487dad1c",
        "extend_eval_points R1 FromOutside site 0": "62510aa7f512acb4",
        "extend_global_points R1 FromOutside site 0": "62510aa7f512acb4",
        "extend_eval_points R1 FromOutside site 1": "720ea05bc28f369e",
        "extend_global_points R1 FromOutside site 1": "5fc52776c19a0dfd",
        "extend_eval_points R1 FromOutside site 2 InnerPiece1": "6f75b3b62c9ebe31",
        "extend_global_points R1 FromOutside site 2 InnerPiece1": "6f75b3b62c9ebe31",
        "extend_eval_points R1 FromOutside site 2 InnerPiece2": "a4558ea2948a3401",
        "extend_global_points R1 FromOutside site 2 InnerPiece2": "a4558ea2948a3401",
        "extend_eval_points R1 FromOutside site 2 InnerPiece3": "e4c5dabb14a14296",
        "extend_global_points R1 FromOutside site 2 InnerPiece3": "e4c5dabb14a14296",
        "extend_eval_points R2 FromInside site 0": "c2c81566bf685ded",
        "extend_global_points R2 FromInside site 0": "c2c81566bf685ded",
        "extend_eval_points R2 FromInside site 1": "d9f95554688c9dda",
        "extend_global_points R2 FromInside site 1": "d9f95554688c9dda",
        "extend_eval_points R2 FromInside site 2 RegionD": "a56efafa4885c8f2",
        "extend_global_points R2 FromInside site 2 RegionD": "8a28fdd8d33d0c6b",
        "extend_eval_points R2 FromInside site 2 RegionE": "95f627dbbb7cf230",
        "extend_global_points R2 FromInside site 2 RegionE": "ade6fcf837178d5b",
    },
}


def batch_entries(params):
    """(name, entry(t, X) -> outputs, rows it accepts) of every point-batch
    entry, on the mixed batch's rows of each piece of each chart and of each
    extension spec's reach."""
    t, X = mixed_batch(params)
    r = radii(X)
    wall = on_cusp_wall(params, t, r)
    for chart in ChartId:
        idx, interface, kink = own_gaps(chart, params, t, r)
        room = np.minimum(interface, kink) > 2.0 * fd_step(t, r)
        for i, label in enumerate(chart_regions(chart)):
            name = f"{chart.value} {label.value}"
            for entry, rows in (("apply_points", idx == i),
                                ("differential_points", ~wall & (idx == i) & (interface > 0.0)),
                                ("differential_fd_points", (idx == i) & room)):
                yield f"{entry} {name}", partial(getattr(reflections, entry), chart, params), rows
        yield (f"invert_points {chart.value}", partial(reflections.invert_points, chart, params),
               image_of(chart, params, t, r))
    for spec in SPECS:
        site, chart, _, _ = ref_eval_site(spec, params, t, X)
        idx, interface, _ = own_gaps(chart, params, t, r)
        smooth = (site == 1) | ((site == 2) & (idx >= 0) & (interface > 0.0))
        for entry, rows in (("extend_eval_points", site >= 0),
                            ("extend_global_points", site >= 0),
                            ("extend_gradient_points", smooth)):
            for key in (0, 1, 2):
                yield (f"{entry} {spec.scheme} {spec.direction.value} site {key}",
                       partial(getattr(extension, entry), spec, params, probe(spec)),
                       rows & (site == key))
    yield "cutoff_psi_points", partial(extension.cutoff_psi_points, params), np.ones(t.size, bool)


@pytest.mark.parametrize("n,s", PARAMS)
def test_outputs_share_no_memory_with_inputs(n, s):
    # T is t itself on C and P3, and a one-piece batch is returned without a
    # row buffer: no output may be a view of the caller's t or X
    params = CuspParams(n, s)
    t, X = mixed_batch(params)
    for name, entry, rows in batch_entries(params):
        if not rows.any():
            continue
        tb, Xb = t[rows], X[rows]
        out = entry(tb, Xb)
        for a in out if isinstance(out, tuple) else (out,):
            assert not (np.shares_memory(a, tb) or np.shares_memory(a, Xb)), name


@pytest.mark.parametrize("n,s", PARAMS)
def test_cached_constants_do_not_leak(n, s):
    # the identity and its axis row are built once per dimension and are
    # read-only; writing into a returned differential, image or batch output
    # in place leaves the bits of the next call as they were
    params = CuspParams(n, s)
    eye = reflections._eye(n - 1)
    assert eye is reflections._eye(n - 1)
    assert not eye.flags.writeable and not eye[:1].flags.writeable
    assert np.array_equal(eye, np.eye(n - 1))
    t, X = mixed_batch(params)
    for name, entry, rows in batch_entries(params):
        if not name.startswith("differential_points") or not rows.any():
            continue
        want = digest(*entry(t[rows], X[rows]))
        for a in entry(t[rows], X[rows]):
            a[...] = np.nan
        assert digest(*entry(t[rows], X[rows])) == want, name
    # one-row jets off and on the axis, where the axis row is the direction
    axis = np.zeros(n - 1)
    for chart, z in ((ChartId.R1Outer, (0.1, np.full(n - 1, 0.02))),
                     (ChartId.R2Outer, (-0.25, axis)), (ChartId.R1Inner, (0.25, axis))):
        jet = reflections.differential(chart, params, z)
        want = digest(jet.image.as_array(), jet.differential, jet.det, jet.opnorm)
        jet.differential[...] = np.nan
        jet.image.x[...] = np.nan
        again = reflections.differential(chart, params, z)
        assert digest(again.image.as_array(), again.differential, again.det,
                      again.opnorm) == want, chart
    assert np.array_equal(eye, np.eye(n - 1))


@pytest.mark.parametrize("n,s", PARAMS)
@pytest.mark.parametrize("spec", SPECS)
def test_extension_values_compose_with_apply_points(n, s, spec):
    # the composite rows of extend_eval_points are u(T) of the chart's image,
    # bit for bit, on the mixed batch and on each piece's rows alone
    params = CuspParams(n, s)
    t, X = mixed_batch(params)
    u = probe(spec)
    site, chart, _, _ = ref_eval_site(spec, params, t, X)
    via = np.flatnonzero(site == 2)
    idx = piece_index(chart, params, t[via], radii(X[via]))
    for rows in [via, *(via[idx == i] for i in range(len(chart_regions(chart))))]:
        want = u.value_t(reflections.apply_points(chart, params, t[rows], X[rows])[0])
        got = extension.extend_eval_points(spec, params, u, t[rows], X[rows])
        assert [float.hex(v) for v in got] == [float.hex(v) for v in want]
