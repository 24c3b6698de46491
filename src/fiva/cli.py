"""Command-line interface.

Exit codes: 0 on success, 1 on usage errors (bad flags, unknown command),
2 on data errors (malformed files, dimension conflicts, bad values).
Diagnostics go to stderr; data goes to files or stdout.

A JSON config file (flat key/value pairs keyed by flag name, on/off flags
as JSON booleans) can provide any option; explicit flags override it. The
``FIVA_SEED`` environment variable supplies a default seed when neither a
flag nor the config does.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import io
import json
import math
import os
import sys
from pathlib import Path
from typing import IO, Iterator, Sequence

import numpy as np

from . import io as fio
from .defense import (
    NoiseSpec,
    fgsm_defense,
    fraction_sweep,
    parameter_noise,
    toy_oracle,
    uniform_pixel_noise,
)
from .detector import DEFAULT_DETECT_THRESHOLD, score_rows
from .errors import ConfigError, FivaError
from .metrics import retrieval_report, temporal_consistency
from .sampling import sample_batch
from .sphere import AnchorSet, _Take, build_anchor_set
from .synth import (
    MockAnonymizer,
    SynthConfig,
    end_to_end_benchmark,
    generate_identities,
)
from .tracking import DEFAULT_MATCH_THRESHOLD, TrackerState, _f32_margin, load_state, save_state

__all__ = ["main"]

SEED_ENV_VAR = "FIVA_SEED"


class _Parser(argparse.ArgumentParser):
    """argparse with usage failures mapped to exit code 1."""

    def error(self, message: str) -> None:  # type: ignore[override]
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _fmt(value: float) -> str:
    return repr(float(value))


def _add_common(parser: argparse.ArgumentParser, default=None) -> None:
    parser.add_argument("--dim", type=int, default=default, help="embedding dimension for generators (default 512)")
    parser.add_argument("--seed", type=int, default=default, help=f"master RNG seed (default: ${SEED_ENV_VAR} or 0)")
    parser.add_argument("--config", default=default, help="JSON file of flat key/value option defaults")
    parser.add_argument("--threads", type=int, default=default, help="accepted for compatibility; has no effect on output or speed")


def _build_parser() -> _Parser:
    parser = _Parser(prog="fiva", allow_abbrev=False, description=__doc__)
    _add_common(parser)
    sub = parser.add_subparsers(dest="command", metavar="COMMAND", parser_class=_Parser)
    sub.required = True

    p = sub.add_parser("build-anchors", allow_abbrev=False, help="interpolate mean embeddings into an anchor set")
    p.add_argument("--means", required=True, help="embedding file of identity means")
    p.add_argument("--rounds", type=int, default=None, help="interpolation generations (default 1)")
    p.add_argument("--t", type=float, default=None, help="interpolation parameter in (0, 1) (default 0.5)")
    p.add_argument("--normalize", action="store_true", default=None, help="project input rows onto the sphere on read")
    p.add_argument("--out", required=True, help="output anchor embedding file")
    p.add_argument("--provenance", default=None, help="optional CSV of per-anchor source pairs")
    p.add_argument("--skips", default=None, help="optional CSV of skipped antipodal pairs")
    _add_common(p, default=argparse.SUPPRESS)
    p.set_defaults(func=_cmd_build_anchors)

    p = sub.add_parser("sample", allow_abbrev=False, help="sample fake identities from an anchor set")
    p.add_argument("--anchors", required=True, help="anchor embedding file")
    p.add_argument("--query", required=True, help="embedding file of identities to anonymize")
    p.add_argument("--margin", type=float, default=None, help="margin m in [-1, 1]: the sampler targets cosine -m, so m=0 picks the most orthogonal anchor and m=0.7 picks one near cosine -0.7 (default 0)")
    p.add_argument("--normalize", action="store_true", default=None, help="project input rows onto the sphere on read")
    p.add_argument("--out", required=True, help="output embedding file of sampled fakes")
    _add_common(p, default=argparse.SUPPRESS)
    p.set_defaults(func=_cmd_sample)

    p = sub.add_parser("track", allow_abbrev=False, help="route frame embeddings through the identity tracker")
    p.add_argument("--frames", required=True, help="embedding file of frame embeddings in playback order")
    p.add_argument("--anchors", default=None, help="anchor embedding file for minting new fakes")
    p.add_argument("--threshold", type=float, default=None, help="cosine-distance match threshold (default 0.63)")
    p.add_argument("--margin", type=float, default=None, help="sampling margin m; targets cosine -m (default 0)")
    p.add_argument("--normalize", action="store_true", default=None, help="project input rows onto the sphere on read")
    p.add_argument("--state-in", default=None, help="resume from a saved tracker state file")
    p.add_argument("--state-out", default=None, help="write the final tracker state here")
    p.add_argument("--out", default=None, help="output embedding file of per-frame fakes")
    p.add_argument("--log", default=None, help="per-frame match log CSV (default stdout)")
    _add_common(p, default=argparse.SUPPRESS)
    p.set_defaults(func=_cmd_track)

    p = sub.add_parser("eval-retrieval", allow_abbrev=False, help="identity retrieval rate of probes against a gallery")
    p.add_argument("--probes", required=True, help="labeled embedding file of probes")
    p.add_argument("--gallery", required=True, help="labeled embedding file of gallery identities")
    p.add_argument("--threshold", type=float, default=None, help="success distance threshold (default 0.63)")
    p.add_argument("--negate", action="store_true", default=None, help="negate each probe first (inversion leakage check)")
    p.add_argument("--normalize", action="store_true", default=None, help="project input rows onto the sphere on read")
    p.add_argument("--report", default=None, help="report CSV path (default stdout)")
    _add_common(p, default=argparse.SUPPRESS)
    p.set_defaults(func=_cmd_eval_retrieval)

    p = sub.add_parser("eval-temporal", allow_abbrev=False, help="temporal consistency of per-video embedding files")
    p.add_argument("--frames", required=True, nargs="+", help="one embedding file per video")
    p.add_argument("--normalize", action="store_true", default=None, help="project input rows onto the sphere on read")
    p.add_argument("--report", default=None, help="report CSV path (default stdout)")
    _add_common(p, default=argparse.SUPPRESS)
    p.set_defaults(func=_cmd_eval_temporal)

    p = sub.add_parser("defend", allow_abbrev=False, help="apply a reconstruction defense to an image or parameter file")
    p.add_argument("--mode", required=True, choices=("uniform", "param", "fgsm"), help="uniform pixel noise, parameter noise, or a gradient-sign step")
    p.add_argument("--epsilon", type=float, default=None, help="perturbation amplitude (default 0.15; 0.1 for param)")
    p.add_argument("--fraction", type=float, default=None, help="fraction of pixel locations to noise (uniform mode, default 0.47)")
    p.add_argument("--sweep", default=None, help="comma-separated fractions; writes one output per fraction")
    p.add_argument("--center", default=None, help="attack-target image for the fgsm toy objective")
    p.add_argument("--input", required=True, help="input image (PPM/PGM) or parameter container")
    p.add_argument("--output", required=True, help="output path (sweep outputs get an _f<fraction> suffix)")
    _add_common(p, default=argparse.SUPPRESS)
    p.set_defaults(func=_cmd_defend)

    p = sub.add_parser("detect", allow_abbrev=False, help="score aligned input/output embeddings for identity displacement")
    p.add_argument("--inputs", required=True, help="embedding file of original identities")
    p.add_argument("--outputs", required=True, help="embedding file of pipeline outputs, row-aligned")
    p.add_argument("--threshold", type=float, default=None, help="fakeness distance threshold (default 0.6)")
    p.add_argument("--normalize", action="store_true", default=None, help="project input rows onto the sphere on read")
    p.add_argument("--report", default=None, help="report CSV path (default stdout)")
    _add_common(p, default=argparse.SUPPRESS)
    p.set_defaults(func=_cmd_detect)

    p = sub.add_parser("bench", allow_abbrev=False, help="run the synthetic end-to-end benchmark")
    p.add_argument("--identities", type=int, default=None, help="identity count (default 100)")
    p.add_argument("--frames", type=int, default=None, help="frames per identity (default 10)")
    p.add_argument("--jitter", type=float, default=None, help="frame jitter sigma (default 0.01)")
    p.add_argument("--mode", default=None, choices=("negation", "anchor_sample", "slerp_blend"), help="mock anonymizer (default anchor_sample)")
    p.add_argument("--margin", type=float, default=None, help="sampling margin m; targets cosine -m (default 0)")
    p.add_argument("--blend", type=float, default=None, help="slerp_blend interpolation fraction (default 0.5)")
    p.add_argument("--rounds", type=int, default=None, help="anchor construction rounds (default 2)")
    p.add_argument("--t", type=float, default=None, help="anchor interpolation parameter (default 0.5)")
    p.add_argument("--retrieval-threshold", type=float, default=None, help="retrieval success threshold (default 0.63)")
    p.add_argument("--tracker-threshold", type=float, default=None, help="tracker match threshold (default 0.63)")
    p.add_argument("--out-dir", required=True, help="directory for generated files and the report")
    _add_common(p, default=argparse.SUPPRESS)
    p.set_defaults(func=_cmd_bench)

    return parser


def _config_number(name: str, value, cast):
    """A config value of an int or float option, cast: int options take JSON
    integers, float options finite JSON numbers, and neither takes a boolean."""
    if cast is int:
        fits, want = isinstance(value, int), "an integer"
    else:
        fits = isinstance(value, (int, float)) and abs(value) <= sys.float_info.max
        want = "a finite number"
    if isinstance(value, bool) or not fits:
        raise ConfigError(f"config key {name!r} must be {want}, got {value!r}")
    return cast(value)


class _Options:
    """Flag > config file > environment > default resolution."""

    def __init__(self, args: argparse.Namespace) -> None:
        self.args = args
        self.config: dict = {}
        path = getattr(args, "config", None)
        if path:
            try:
                with open(path, "r", encoding="utf-8") as fh:
                    loaded = json.load(fh)
            except OSError as exc:
                raise ConfigError(f"cannot read config {path}: {exc}") from exc
            except json.JSONDecodeError as exc:
                raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
            if not isinstance(loaded, dict):
                raise ConfigError(f"config {path} must hold a flat JSON object")
            for key, value in loaded.items():
                if isinstance(value, (dict, list)):
                    raise ConfigError(
                        f"config key {key!r} must map to a scalar, got {type(value).__name__}"
                    )
                key = str(key).replace("-", "_")
                if key in ("normalize", "negate") and not isinstance(value, bool):
                    raise ConfigError(f"config key {key!r} must be true or false, got {value!r}")
                self.config[key] = value

    def get(self, name: str, default, cast=None):
        value = getattr(self.args, name, None)
        if value is None:
            value = self.config.get(name)
            if value is not None and cast in (int, float):
                return _config_number(name, value, cast)
        if value is None and name == "seed":
            env = os.environ.get(SEED_ENV_VAR)
            if env is not None:
                try:
                    value = int(env)
                except ValueError as exc:
                    raise ConfigError(
                        f"{SEED_ENV_VAR} must be an integer, got {env!r}"
                    ) from exc
        if value is None:
            return default
        return cast(value) if cast else value

    @property
    def seed(self) -> int:
        return self.get("seed", 0, int)

    @property
    def dim(self) -> int:
        return self.get("dim", 512, int)


@contextlib.contextmanager
def _text_out(path: str | None) -> Iterator[IO[str]]:
    """stdout, or a buffer written to ``path`` atomically when the block ends."""
    if path is None:
        yield sys.stdout
        return
    buffer = io.StringIO()
    yield buffer
    fio._write(path, [buffer.getvalue().encode("utf-8")])


def _info(message: str) -> None:
    print(message, file=sys.stderr)


def _cmd_build_anchors(args: argparse.Namespace, opts: _Options) -> int:
    means, _ = fio.load_rows(args.means, opts.get("normalize", False))
    anchors = build_anchor_set(
        means,
        rounds=opts.get("rounds", 1, int),
        t=opts.get("t", 0.5, float),
    )
    fio.write_container(args.out, anchors.matrix)
    if args.provenance is not None:
        with _text_out(args.provenance) as fh:
            fh.write("anchor_index,round,source_a,source_b,t\n")
            for i, p in enumerate(anchors.provenance):
                fh.write(f"{i},{p.round_index},{p.source_a},{p.source_b},{_fmt(p.t)}\n")
    if args.skips is not None:
        with _text_out(args.skips) as fh:
            fh.write("round,source_a,source_b\n")
            fh.writelines(f"{s.round_index},{s.source_a},{s.source_b}\n" for s in anchors.skipped)
    _info(
        f"built {len(anchors)} anchors from {len(means)} means "
        f"({anchors.rounds} rounds, {len(anchors.skipped)} skipped)"
    )
    return 0


def _cmd_sample(args: argparse.Namespace, opts: _Options) -> int:
    anchors = AnchorSet(fio.load_rows(args.anchors, opts.get("normalize", False))[0])
    with fio._open_rows(args.query, opts.get("normalize", False)) as (queries, _):
        margin = _f32_margin(opts.get("margin", 0.0, float))
        index, cosine = sample_batch(queries, anchors, margin)
    fio.write_container(args.out, _Take(anchors.matrix, index))
    print("query_index,anchor_index,achieved_cosine")
    for i, (chosen, achieved) in enumerate(zip(index.tolist(), cosine.tolist())):
        print(f"{i},{chosen},{_fmt(achieved)}")
    return 0


def _cmd_track(args: argparse.Namespace, opts: _Options) -> int:
    anchors = None
    if args.anchors is not None:
        anchors = AnchorSet(fio.load_rows(args.anchors, opts.get("normalize", False))[0])
    if args.state_in is not None:
        state = load_state(args.state_in, anchors=anchors)
    else:
        state = TrackerState(anchors=anchors)
    # The setters range-check and round the overrides as the constructor does.
    state.threshold = opts.get("threshold", state.threshold, float)
    state.margin = opts.get("margin", state.margin, float)
    with fio._open_rows(args.frames, opts.get("normalize", False)) as (frames, _):
        matched, keys, distances = state.track_rows(frames)
    if args.out is not None:
        fio.write_container(args.out, _Take(state.fake_matrix, keys))
    if args.state_out is not None:
        save_state(state, args.state_out)
    with _text_out(args.log) as fh:
        fh.write("frame_index,matched,key,distance\n")
        for i, (hit, key, distance) in enumerate(
            zip(matched.tolist(), keys.tolist(), distances.tolist())
        ):
            cell = "" if math.isnan(distance) else _fmt(distance)
            fh.write(f"{i},{int(hit)},{key},{cell}\n")
    _info(
        f"tracked {len(keys)} frames: {state.key_pointer} distinct identities"
    )
    return 0


def _cmd_eval_retrieval(args: argparse.Namespace, opts: _Options) -> int:
    normalize = opts.get("normalize", False)
    probes, labels = fio._labeled(args.probes, fio._load_table(args.probes, normalize))
    gallery = fio.load_gallery(args.gallery, normalize)
    threshold = opts.get("threshold", DEFAULT_MATCH_THRESHOLD, float)
    negate = opts.get("negate", False)
    report = retrieval_report(probes, labels, gallery, threshold, negate)
    with _text_out(args.report) as fh:
        fh.write("probe_index,true_label,retrieved_label,distance,success\n")
        writer = csv.writer(fh, lineterminator="\n")  # quotes labels that need it
        writer.writerows(
            [i, true, gallery.labels[k], _fmt(distance), int(success)]
            for i, (true, k, distance, success) in enumerate(zip(
                labels, report.index.tolist(), report.distance.tolist(), report.success.tolist()
            ))
        )
        fh.write(f"aggregate,,,,{_fmt(report.success_rate)}\n")
    _info(
        f"{'neg-id' if negate else 'id'} retrieval rate "
        f"{report.success_rate:.6f} at threshold {threshold}"
    )
    return 0


def _cmd_eval_temporal(args: argparse.Namespace, opts: _Options) -> int:
    videos = [fio._load_table(path, opts.get("normalize", False))[0] for path in args.frames]
    report = temporal_consistency(videos)
    with _text_out(args.report) as fh:
        fh.write("video_index,video,frame_count,mean_distance,std_distance\n")
        csv.writer(fh, lineterminator="\n").writerows(
            [i, Path(path).name, len(video), _fmt(mean), _fmt(std)]
            for i, (path, video, mean, std) in enumerate(zip(
                args.frames, videos, report.video_means.tolist(), report.video_stds.tolist()
            ))
        )
        fh.write(
            f"aggregate,,,{_fmt(report.mean_of_means)},{_fmt(report.mean_of_stds)}\n"
        )
    _info(
        f"temporal consistency over {len(videos)} videos: "
        f"mean {report.mean_of_means:.6f}, std {report.mean_of_stds:.6f}"
    )
    return 0


def _sweep_path(output: str, fraction: float) -> str:
    path = Path(output)
    return str(path.with_name(f"{path.stem}_f{fraction:g}{path.suffix}"))


def _cmd_defend(args: argparse.Namespace, opts: _Options) -> int:
    mode = args.mode
    default_epsilon = 0.1 if mode == "param" else 0.15
    epsilon = opts.get("epsilon", default_epsilon, float)
    seed = opts.seed
    if mode == "param":
        matrix, labels = fio.read_container(args.input)
        flat = matrix.astype(np.float64).reshape(-1)
        noised = parameter_noise(flat, epsilon, seed)
        fio.write_container(args.output, noised.reshape(matrix.shape), labels)
        _info(f"noised {flat.size} parameters with sigma {epsilon}")
        return 0
    image = fio.read_image_ppm(args.input)
    if mode == "fgsm":
        if args.center is None:
            raise ConfigError("fgsm mode needs --center, the attack-target image")
        oracle = toy_oracle(fio.read_image_ppm(args.center))
        fio.write_image_ppm(args.output, fgsm_defense(image, oracle, epsilon))
        _info(f"applied gradient-sign step of magnitude {epsilon}")
        return 0
    sweep = opts.get("sweep", None)
    if sweep is not None:
        try:
            fractions = [float(f) for f in str(sweep).split(",") if f.strip()]
        except ValueError as exc:
            raise ConfigError(f"bad --sweep value {sweep!r}: {exc}") from exc
        outputs = fraction_sweep(image, epsilon, fractions, seed)
        print("fraction,path")
        writer = csv.writer(sys.stdout, lineterminator="\n")  # quotes paths that need it
        for fraction, noised in outputs:
            path = _sweep_path(args.output, fraction)
            fio.write_image_ppm(path, noised)
            writer.writerow([_fmt(fraction), path])
        return 0
    fraction = opts.get("fraction", 0.47, float)
    spec = NoiseSpec(epsilon, fraction, seed)
    fio.write_image_ppm(args.output, uniform_pixel_noise(image, spec))
    _info(
        f"noised fraction {fraction} of pixels with amplitude {epsilon} (seed {seed})"
    )
    return 0


def _cmd_detect(args: argparse.Namespace, opts: _Options) -> int:
    normalize = opts.get("normalize", False)
    with (
        fio._open_rows(args.inputs, normalize) as (inputs, _),
        fio._open_rows(args.outputs, normalize) as (outputs, _),
    ):
        threshold = opts.get("threshold", DEFAULT_DETECT_THRESHOLD, float)
        if not 0.0 < threshold < 2.0:
            raise ValueError(f"threshold must be in (0, 2), got {threshold}")
        dist = score_rows(inputs, outputs)
    flags = [distance > threshold for distance in dist.scores]
    with _text_out(args.report) as fh:
        fh.write("pair_index,distance,is_fake\n")
        for i, (distance, is_fake) in enumerate(zip(dist.scores, flags)):
            fh.write(f"{i},{_fmt(distance)},{int(is_fake)}\n")
        fh.write(f"mean,{_fmt(dist.mean)},\n")
        fh.write(f"std,{_fmt(dist.std)},\n")
        fh.write(f"min,{_fmt(dist.score_min)},\n")
        fh.write(f"max,{_fmt(dist.score_max)},\n")
        histogram = " ".join(str(c) for c in dist.histogram)
        fh.write(f"histogram,{histogram},\n")
    _info(f"flagged {sum(flags)}/{len(flags)} pairs at threshold {threshold}")
    return 0


def _cmd_bench(args: argparse.Namespace, opts: _Options) -> int:
    config = SynthConfig(
        dimension=opts.dim,
        identity_count=opts.get("identities", 100, int),
        frames_per_identity=opts.get("frames", 10, int),
        jitter_sigma=opts.get("jitter", 0.01, float),
        seed=opts.seed,
    )
    mode = opts.get("mode", "anchor_sample")
    # Every option is read before anything is written, so a bad value writes nothing.
    rounds, t = opts.get("rounds", 2, int), opts.get("t", 0.5, float)
    margin, blend = opts.get("margin", 0.0, float), opts.get("blend", 0.5, float)
    retrieval_threshold = opts.get("retrieval_threshold", DEFAULT_MATCH_THRESHOLD, float)
    tracker_threshold = opts.get("tracker_threshold", DEFAULT_MATCH_THRESHOLD, float)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    gallery = generate_identities(config)
    anchors = None
    if mode in ("anchor_sample", "slerp_blend"):
        anchors = build_anchor_set(gallery.matrix, rounds=rounds, t=t)
        fio.write_container(out_dir / "anchors.emb", anchors.matrix)
    result = end_to_end_benchmark(
        config,
        MockAnonymizer(mode=mode, margin=margin, blend=blend, anchors=anchors),
        retrieval_threshold=retrieval_threshold,
        tracker_threshold=tracker_threshold,
        gallery=gallery,
    )
    fio.write_container(out_dir / "gallery.emb", gallery.matrix, gallery.labels)
    per_video = config.frames_per_identity
    frame_labels = [label for label in gallery.labels for _ in range(per_video)]
    for name, rows in (
        ("frames", result.frames.reshape(-1, config.dimension)),
        ("fakes_tracked", result._tracked_rows),
        ("fakes_per_frame", result._per_frame_rows),
    ):
        fio.write_container(out_dir / f"{name}.emb", rows, frame_labels)
    with _text_out(str(out_dir / "report.csv")) as fh:
        fh.write("variant,id_rate,neg_id_rate,mtc_mean,mtc_std\n")
        for name, variant in (("tracked", result.tracked), ("per_frame", result.per_frame)):
            fh.write(
                f"{name},{_fmt(variant.id_report.success_rate)},"
                f"{_fmt(variant.neg_id_report.success_rate)},"
                f"{_fmt(variant.temporal.mean_of_means)},"
                f"{_fmt(variant.temporal.mean_of_stds)}\n"
            )
    _info(
        f"benchmark ({mode}) done: tracked id {result.tracked.id_report.success_rate:.3f}, "
        f"neg-id {result.tracked.neg_id_report.success_rate:.3f}"
    )
    return 0


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        opts = _Options(args)
        return args.func(args, opts)
    except (FivaError, OSError, ValueError) as exc:
        print(f"fiva: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
