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
