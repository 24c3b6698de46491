"""Command-line interface.

Exit codes: 0 on success, 1 on usage errors (bad flags, unknown command),
2 on data errors (malformed files, dimension conflicts, bad values, inputs
too large for memory).
Diagnostics go to stderr; data goes to files or stdout.

A JSON config file (flat key/value pairs keyed by flag name, on/off flags
as JSON booleans) can provide any option; explicit flags override it. The
``FIVA_SEED`` environment variable supplies a default seed when neither a
flag nor the config does.
"""

from __future__ import annotations

import argparse
import contextlib
import errno
import itertools
import json
import math
import os
import signal
import sys
import threading
from pathlib import Path
from typing import Iterable, NamedTuple, NoReturn, Sequence

# After each call, and once at start-up, an idle OpenBLAS worker busy-waits
# 2^28 cycles (about 0.1 s) before it sleeps. A command's BLAS calls are
# separated by Python work, so that spin burns CPU and finishes nothing sooner.
# 2^20 cycles leaves the thread count, the work split and every output bit as
# they were. A caller's value is kept. A process that loaded numpy before this
# module has started its BLAS already, and its environment is left alone.
if "numpy" not in sys.modules:
    os.environ.setdefault("OPENBLAS_THREAD_TIMEOUT", "20")

import numpy as np

# Every command reads or writes its files through io, which loads sphere and
# gallery. Each command imports the other layers it runs, so that a process
# loads only those.
from . import io as fio
from .errors import ConfigError, EmptyList, FivaError
from .sphere import DEFAULT_DETECT_THRESHOLD, DEFAULT_MATCH_THRESHOLD, AnchorSet, _Take, build_anchor_set

__all__ = ["main", "run"]

SEED_ENV_VAR = "FIVA_SEED"

# defend's epsilon in param mode, where the table's default does not apply.
_PARAM_EPSILON = 0.1


class _Opt(NamedTuple):
    """An option a flag or a config key can set. ``kind`` is bool, int, float,
    str or a tuple of choices; ``{}`` in ``help`` renders ``default``."""

    kind: object
    default: object
    help: str


_OPTIONS = {
    "dim": _Opt(int, 512, "embedding dimension for generators (default {})"),
    "seed": _Opt(int, 0, f"master RNG seed (default: ${SEED_ENV_VAR} or {{}})"),
    "threads": _Opt(int, None, "accepted for compatibility; has no effect on output or speed"),
    "normalize": _Opt(bool, False, "project input rows onto the sphere on read"),
    "negate": _Opt(bool, False, "negate each probe first (inversion leakage check)"),
    "threshold": _Opt(float, DEFAULT_MATCH_THRESHOLD, "success distance threshold (default {:g})"),
    "margin": _Opt(float, 0.0, "sampling margin m; targets cosine -m (default {:g})"),
    "rounds": _Opt(int, 1, "interpolation generations (default {})"),
    "t": _Opt(float, 0.5, "interpolation parameter in (0, 1) (default {:g})"),
    "epsilon": _Opt(float, 0.15, f"perturbation amplitude (default {{:g}}; {_PARAM_EPSILON:g} for param)"),
    "fraction": _Opt(float, 0.47, "fraction of pixel locations to noise (uniform mode, default {:g})"),
    "sweep": _Opt(str, None, "comma-separated fractions; writes one output per fraction"),
    "identities": _Opt(int, 100, "identity count (default {})"),
    "frames": _Opt(int, 10, "frames per identity (default {})"),
    "jitter": _Opt(float, 0.01, "frame jitter sigma (default {:g})"),
    "mode": _Opt(("negation", "anchor_sample", "slerp_blend"), "anchor_sample", "mock anonymizer (default {})"),
    "blend": _Opt(float, 0.5, "slerp_blend interpolation fraction (default {:g})"),
    "retrieval_threshold": _Opt(float, DEFAULT_MATCH_THRESHOLD, "retrieval success threshold (default {:g})"),
    "tracker_threshold": _Opt(float, DEFAULT_MATCH_THRESHOLD, "tracker match threshold (default {:g})"),
}


class _Parser(argparse.ArgumentParser):
    """argparse with usage failures mapped to exit code 1."""

    def error(self, message: str) -> None:  # type: ignore[override]
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _option(parser: argparse.ArgumentParser, *names: str, **changes) -> None:
    """Add the table options ``names`` to ``parser``, with ``changes`` to their
    default or help for this command. A flag left out sets nothing, so a value
    given before the command is kept."""
    for name in names:
        opt = _OPTIONS[name]._replace(**changes)
        parser.get_default("defaults")[name] = opt.default
        kind = {"choices": opt.kind} if isinstance(opt.kind, tuple) else {"type": opt.kind}
        kind = {"action": "store_true"} if opt.kind is bool else kind
        flag = "--" + name.replace("_", "-")
        parser.add_argument(flag, default=argparse.SUPPRESS, help=opt.help.format(opt.default), **kind)


def _build_parser() -> _Parser:
    parser = _Parser(prog="fiva", allow_abbrev=False, description=__doc__)
    parser.set_defaults(defaults={})
    commands = parser.add_subparsers(dest="command", metavar="COMMAND", parser_class=_Parser, required=True)

    def command(name: str, func, summary: str) -> _Parser:
        p = commands.add_parser(name, allow_abbrev=False, help=summary)
        p.set_defaults(func=func, defaults={})
        return p

    p = command("build-anchors", _cmd_build_anchors, "interpolate mean embeddings into an anchor set")
    p.add_argument("--means", required=True, help="embedding file of identity means")
    _option(p, "rounds", "t", "normalize")
    p.add_argument("--out", required=True, help="output anchor embedding file")
    p.add_argument("--provenance", help="optional CSV of per-anchor source pairs")
    p.add_argument("--skips", help="optional CSV of skipped antipodal pairs")

    p = command("sample", _cmd_sample, "sample fake identities from an anchor set")
    p.add_argument("--anchors", required=True, help="anchor embedding file")
    p.add_argument("--query", required=True, help="embedding file of identities to anonymize")
    _option(p, "margin", help="margin m in [-1, 1]: the sampler targets cosine -m, so m=0 picks the most orthogonal anchor and m=0.7 picks one near cosine -0.7 (default {:g})")
    _option(p, "normalize")
    p.add_argument("--out", required=True, help="output embedding file of sampled fakes")

    p = command("track", _cmd_track, "route frame embeddings through the identity tracker")
    p.add_argument("--frames", required=True, help="embedding file of frame embeddings in playback order")
    p.add_argument("--anchors", help="anchor embedding file for minting new fakes")
    _option(p, "threshold", help="cosine-distance match threshold (default {:g}; a resumed tracker keeps its state's)")
    _option(p, "margin", help="sampling margin m; targets cosine -m (default {:g}; a resumed tracker keeps its state's)")
    _option(p, "normalize")
    p.add_argument("--state-in", help="resume from a saved tracker state file")
    p.add_argument("--state-out", help="write the final tracker state here")
    p.add_argument("--out", help="output embedding file of per-frame fakes")
    p.add_argument("--log", help="per-frame match log CSV (default stdout)")

    p = command("eval-retrieval", _cmd_eval_retrieval, "identity retrieval rate of probes against a gallery")
    p.add_argument("--probes", required=True, help="labeled embedding file of probes")
    p.add_argument("--gallery", required=True, help="labeled embedding file of gallery identities")
    _option(p, "threshold", "negate", "normalize")
    p.add_argument("--report", help="report CSV path (default stdout)")

    p = command("eval-temporal", _cmd_eval_temporal, "temporal consistency of per-video embedding files")
    p.add_argument("--frames", required=True, nargs="+", help="one embedding file per video")
    _option(p, "normalize")
    p.add_argument("--report", help="report CSV path (default stdout)")

    p = command("defend", _cmd_defend, "apply a reconstruction defense to an image or parameter file")
    p.add_argument("--mode", required=True, choices=("uniform", "param", "fgsm"), help="uniform pixel noise, parameter noise, or a gradient-sign step")
    _option(p, "epsilon", "fraction", "sweep")
    p.add_argument("--center", help="attack-target image for the fgsm toy objective")
    p.add_argument("--input", required=True, help="input image (PPM/PGM) or parameter container")
    p.add_argument("--output", required=True, help="output path (sweep outputs get an _f<fraction> suffix)")

    p = command("detect", _cmd_detect, "score aligned input/output embeddings for identity displacement")
    p.add_argument("--inputs", required=True, help="embedding file of original identities")
    p.add_argument("--outputs", required=True, help="embedding file of pipeline outputs, row-aligned")
    _option(p, "threshold", default=DEFAULT_DETECT_THRESHOLD, help="fakeness distance threshold (default {:g})")
    _option(p, "normalize")
    p.add_argument("--report", help="report CSV path (default stdout)")

    p = command("bench", _cmd_bench, "run the synthetic end-to-end benchmark")
    _option(p, "identities", "frames", "jitter", "mode", "margin", "blend")
    _option(p, "rounds", default=2, help="anchor construction rounds (default {})")
    _option(p, "t", help="anchor interpolation parameter (default {:g})")
    _option(p, "retrieval_threshold", "tracker_threshold")
    p.add_argument("--out-dir", required=True, help="directory for generated files and the report")

    # The global options, accepted before or after the command.
    for p in (parser, *commands.choices.values()):
        _option(p, "dim", "seed")
        p.add_argument("--config", default=argparse.SUPPRESS, help="JSON file of flat key/value option defaults")
        _option(p, "threads")
    return parser


def _config_value(name: str, value, kind):
    """Config ``value`` of table option ``name``, checked against its ``kind``
    (the README's type rules); a value that breaks them is a :class:`ConfigError`."""
    number = isinstance(value, (int, float)) and not isinstance(value, bool)
    if kind is bool:
        fits, want = isinstance(value, bool), "true or false"
    elif isinstance(kind, tuple):
        fits, want = value in kind, "one of " + ", ".join(kind)
    elif kind is int:
        fits, want = number and isinstance(value, int), "an integer"
    elif kind is float:
        fits, want = number and abs(value) <= sys.float_info.max, "a finite number"
    else:
        fits, want = number or isinstance(value, str), "a string or a number"
    if not fits:
        raise ConfigError(f"config key {name!r} must be {want}, got {value!r}")
    return kind(value) if kind in (int, float, str) else value


class _Options:
    """Flag > config file > environment > the command's table default. Every
    config key that names a table option is checked as the config is read."""

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
                if key in _OPTIONS:
                    self.config[key] = _config_value(key, value, _OPTIONS[key].kind)

    def given(self, name: str) -> bool:
        """Whether a flag or the config sets option ``name``."""
        return hasattr(self.args, name) or name in self.config

    def get(self, name: str):
        if hasattr(self.args, name):
            return getattr(self.args, name)
        if name in self.config:
            return self.config[name]
        env = os.environ.get(SEED_ENV_VAR) if name == "seed" else None
        if env is not None:
            try:
                return int(env)
            except ValueError as exc:
                raise ConfigError(f"{SEED_ENV_VAR} must be an integer, got {env!r}") from exc
        return self.args.defaults[name]


def _report(path: str | None, header: str, rows: Iterable[Sequence]) -> None:
    """The CSV table of column names ``header`` and ``rows``, cells rendered by
    :func:`fiva.io._csv_text`: to ``path`` through a temporary file, or to stdout."""
    if path is not None:
        data = f"{header}\n{fio._csv_text(rows)}".encode("utf-8")
        with fio._opened(path) as fh:
            fh.write(data)
        return
    print(header)
    drawn: list[Sequence] = []
    try:
        drawn.extend(rows)
    finally:  # rows drawn before one that fails are still printed
        sys.stdout.write(fio._csv_text(drawn))


def _info(message: str) -> None:
    print(message, file=sys.stderr)


def _cmd_build_anchors(args: argparse.Namespace, opts: _Options) -> int:
    means, _ = fio._loaded(args.means, opts.get("normalize"))
    anchors = build_anchor_set(means, rounds=opts.get("rounds"), t=opts.get("t"))
    if args.provenance is not None:
        _report(args.provenance, "anchor_index,round,source_a,source_b,t", (
            [i, p.round_index, p.source_a, p.source_b, p.t] for i, p in enumerate(anchors.provenance)
        ))
    if args.skips is not None:
        _report(args.skips, "round,source_a,source_b", (
            [s.round_index, s.source_a, s.source_b] for s in anchors.skipped
        ))
    # last: a run that fails before it leaves --out as it was, even when it is --means
    fio.write_container(args.out, anchors.matrix)
    _info(
        f"built {len(anchors)} anchors from {len(means)} means "
        f"({anchors.rounds} rounds, {len(anchors.skipped)} skipped)"
    )
    return 0


def _cmd_sample(args: argparse.Namespace, opts: _Options) -> int:
    from .sampling import _f32_margin, sample_batch

    anchors = AnchorSet(fio._loaded(args.anchors, opts.get("normalize"))[0])
    with fio._open_rows(args.query, opts.get("normalize")) as (queries, _):
        margin = _f32_margin(opts.get("margin"))
        index, cosine = sample_batch(queries, anchors, margin)
    fio.write_container(args.out, _Take(anchors.matrix, index))
    _report(None, "query_index,anchor_index,achieved_cosine", (
        [i, chosen, achieved] for i, (chosen, achieved) in enumerate(zip(index.tolist(), cosine.tolist()))
    ))
    return 0


def _cmd_track(args: argparse.Namespace, opts: _Options) -> int:
    from .tracking import TrackerState, load_state, save_state

    normalize = opts.get("normalize")
    # The anchor file is checked whole here; the tracker reads it only if it mints.
    anchor_file = contextlib.nullcontext((None, None)) if args.anchors is None else fio._open_rows(args.anchors, normalize)
    with anchor_file as (anchors, _):
        if args.state_in is None:
            state = TrackerState(opts.get("threshold"), opts.get("margin"), anchors)
        else:
            state = load_state(args.state_in, anchors=anchors)
            # A resumed tracker keeps its state's threshold and margin unless an
            # option sets them; the setters range-check and round as the constructor does.
            for name in ("threshold", "margin"):
                if opts.given(name):
                    setattr(state, name, opts.get(name))
        with fio._open_rows(args.frames, normalize) as (frames, _):
            matched, keys, distances = state.track_rows(frames)
    if args.out is not None:
        fio.write_container(args.out, _Take(state.fake_matrix, keys))
    _report(args.log, "frame_index,matched,key,distance", (
        [i, int(hit), key, "" if math.isnan(distance) else distance]
        for i, (hit, key, distance) in enumerate(zip(matched.tolist(), keys.tolist(), distances.tolist()))
    ))
    if args.state_out is not None:  # last: a run that fails before it leaves the state as it was
        save_state(state, args.state_out)
    _info(f"tracked {len(keys)} frames: {state.key_pointer} distinct identities")
    return 0


def _cmd_eval_retrieval(args: argparse.Namespace, opts: _Options) -> int:
    from .metrics import retrieval_report

    normalize = opts.get("normalize")
    probes, labels = fio._labeled(args.probes, fio._distinct_table(args.probes, normalize))
    gallery = fio.load_gallery(args.gallery, normalize)
    threshold, negate = opts.get("threshold"), opts.get("negate")
    report = retrieval_report(probes, labels, gallery, threshold, negate)
    _report(args.report, "probe_index,true_label,retrieved_label,distance,success", itertools.chain((
        [i, true, gallery.labels[k], distance, int(success)]
        for i, (true, k, distance, success) in enumerate(zip(
            labels, report.index.tolist(), report.distance.tolist(), report.success.tolist()
        ))
    ), [["aggregate", "", "", "", report.success_rate]]))
    _info(
        f"{'neg-id' if negate else 'id'} retrieval rate "
        f"{report.success_rate:.6f} at threshold {threshold}"
    )
    return 0


def _cmd_eval_temporal(args: argparse.Namespace, opts: _Options) -> int:
    from .metrics import temporal_consistency

    counts: list[int] = []

    def video(path: str) -> _Take:  # read as it is scored: the first bad file decides the error
        rows = fio._distinct_table(path, opts.get("normalize"))[0]
        if not len(rows):
            raise EmptyList(f"{path}: a video needs at least one frame embedding")
        counts.append(len(rows))
        return rows

    report = temporal_consistency(map(video, args.frames))
    rows = [
        [i, Path(path).name, count, mean, std]
        for i, (path, count, mean, std) in enumerate(zip(
            args.frames, counts, report.video_means.tolist(), report.video_stds.tolist()
        ))
    ]
    rows.append(["aggregate", "", "", report.mean_of_means, report.mean_of_stds])
    _report(args.report, "video_index,video,frame_count,mean_distance,std_distance", rows)
    _info(
        f"temporal consistency over {len(counts)} videos: "
        f"mean {report.mean_of_means:.6f}, std {report.mean_of_stds:.6f}"
    )
    return 0


def _sweep_path(output: str, fraction: float) -> str:
    path = Path(output)
    return str(path.with_name(f"{path.stem}_f{fraction:g}{path.suffix}"))


def _cmd_defend(args: argparse.Namespace, opts: _Options) -> int:
    from .defense import NoiseSpec, fgsm_defense, fraction_sweep, parameter_noise, toy_oracle, uniform_pixel_noise

    mode = args.mode
    epsilon = _PARAM_EPSILON if mode == "param" and not opts.given("epsilon") else opts.get("epsilon")
    seed = opts.get("seed")
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
    sweep = opts.get("sweep")
    if sweep is not None:
        try:
            fractions = [float(f) for f in sweep.split(",") if f.strip()]
        except ValueError as exc:
            raise ConfigError(f"bad --sweep value {sweep!r}: {exc}") from exc
        paths = [_sweep_path(args.output, fraction) for fraction in fractions]
        for i, path in enumerate(paths):
            if (first := paths.index(path)) < i:  # one file would hold the last of them
                raise ConfigError(f"--sweep fractions {fractions[first]!r} and {fractions[i]!r} both write {path}")
        outputs = fraction_sweep(image, epsilon, fractions, seed)

        def written():  # each row once its image is written
            for path, (fraction, noised) in zip(paths, outputs):
                fio.write_image_ppm(path, noised)
                yield [fraction, path]

        _report(None, "fraction,path", written())
        return 0
    fraction = opts.get("fraction")
    spec = NoiseSpec(epsilon, fraction, seed)
    fio.write_image_ppm(args.output, uniform_pixel_noise(image, spec))
    _info(f"noised fraction {fraction} of pixels with amplitude {epsilon} (seed {seed})")
    return 0


def _cmd_detect(args: argparse.Namespace, opts: _Options) -> int:
    from .detector import _check_threshold, score_rows

    normalize = opts.get("normalize")
    with (
        fio._open_rows(args.inputs, normalize) as (inputs, _),
        fio._open_rows(args.outputs, normalize) as (outputs, _),
    ):
        threshold = _check_threshold(opts.get("threshold"))
        dist = score_rows(inputs, outputs)
    flags = [distance > threshold for distance in dist.scores]
    rows = [[i, distance, int(is_fake)] for i, (distance, is_fake) in enumerate(zip(dist.scores, flags))]
    rows += [
        ["mean", dist.mean, ""], ["std", dist.std, ""], ["min", dist.score_min, ""],
        ["max", dist.score_max, ""], ["histogram", " ".join(str(c) for c in dist.histogram), ""],
    ]
    _report(args.report, "pair_index,distance,is_fake", rows)
    _info(f"flagged {sum(flags)}/{len(flags)} pairs at threshold {threshold}")
    return 0


def _cmd_bench(args: argparse.Namespace, opts: _Options) -> int:
    from .synth import MockAnonymizer, SynthConfig, end_to_end_benchmark, generate_identities

    config = SynthConfig(
        dimension=opts.get("dim"), identity_count=opts.get("identities"),
        frames_per_identity=opts.get("frames"), jitter_sigma=opts.get("jitter"), seed=opts.get("seed"),
    )
    mode = opts.get("mode")
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    gallery = generate_identities(config)
    anchors = None
    if mode in ("anchor_sample", "slerp_blend"):
        anchors = build_anchor_set(gallery.matrix, rounds=opts.get("rounds"), t=opts.get("t"))
    anonymizer = MockAnonymizer(mode=mode, margin=opts.get("margin"), blend=opts.get("blend"), anchors=anchors)
    per_video = config.frames_per_identity
    frame_labels = [label for label in gallery.labels for _ in range(per_video)]
    # The frames stream into a temporary as the run makes them; every file
    # replaces its old copy once the benchmark has run, in the order below, so
    # a failed or bad run leaves --out-dir as it was.
    with fio._opened(out_dir / "frames.emb") as fh, fio._container_writer(
        fh, len(frame_labels), config.dimension, frame_labels
    ) as frames:
        result = end_to_end_benchmark(
            config, anonymizer,
            retrieval_threshold=opts.get("retrieval_threshold"),
            tracker_threshold=opts.get("tracker_threshold"),
            gallery=gallery, sink=frames,
        )
        if anchors is not None:
            fio.write_container(out_dir / "anchors.emb", anchors.matrix)
        fio.write_container(out_dir / "gallery.emb", gallery.matrix, gallery.labels)
    for name, rows in (("fakes_tracked", result._tracked_rows), ("fakes_per_frame", result._per_frame_rows)):
        fio.write_container(out_dir / f"{name}.emb", rows, frame_labels)
    _report(str(out_dir / "report.csv"), "variant,id_rate,neg_id_rate,mtc_mean,mtc_std", (
        [name, variant.id_report.success_rate, variant.neg_id_report.success_rate,
         variant.temporal.mean_of_means, variant.temporal.mean_of_stds]
        for name, variant in (("tracked", result.tracked), ("per_frame", result.per_frame))
    ))
    _info(
        f"benchmark ({mode}) done: tracked id {result.tracked.id_report.success_rate:.3f}, "
        f"neg-id {result.tracked.neg_id_report.success_rate:.3f}"
    )
    return 0


def _interrupt(signum, frame) -> None:
    raise KeyboardInterrupt


def main(argv: Sequence[str] | None = None) -> int:
    # While a command runs, SIGTERM stops it as Ctrl-C does: the command unwinds,
    # its temporaries are removed, and it exits 2 like any failure.
    main_thread = threading.current_thread() is threading.main_thread()
    previous = signal.signal(signal.SIGTERM, _interrupt) if main_thread else None
    parser = _build_parser()
    try:
        try:
            args = parser.parse_args(argv)
            opts = _Options(args)
            # Outputs lie in existing directories, checked before any input is read.
            for name in ("out", "log", "state_out", "provenance", "skips", "report", "output"):
                path = getattr(args, name, None)
                if path is not None and not Path(path).resolve().parent.is_dir():
                    raise FileNotFoundError(errno.ENOENT, os.strerror(errno.ENOENT), path)
            return args.func(args, opts)
        except SystemExit as exc:  # the parser's: --help, or a usage error
            return int(exc.code or 0)
        finally:  # within the handlers below: a stdout that cannot take the output is a data error
            sys.stdout.flush()
    except (FivaError, OSError, ValueError, MemoryError) as exc:
        print(f"fiva: error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 2
    except KeyboardInterrupt:
        print("fiva: interrupted", file=sys.stderr)
        return 2
    finally:
        if previous is not None:  # None: not installed from Python, so nothing to restore
            signal.signal(signal.SIGTERM, previous)


def run() -> NoReturn:
    """The ``fiva`` command and ``python -m fiva.cli``: :func:`main` on the
    process's arguments, then the process ends with its exit code. By then every
    output is closed and replaced and stdout is flushed, so the process ends
    without the interpreter's teardown, which would only free memory."""
    os._exit(main())


if __name__ == "__main__":
    run()
