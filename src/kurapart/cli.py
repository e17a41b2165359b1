"""Command-line front end.

Subcommands: simulate (trajectory CSV plus sync report), analyze (classify
one partition), search (classify every bipartition), verify (built-in
consistency checks).  Exit codes: 0 success, 1 failed verification, 2 I/O
trouble, 3 invalid input, 4 integration failure.  Data files are written
atomically: content lands in a temp file that is renamed into place, so a
failed run leaves no partial output.  The temp files are created before
any integration, so an unwritable output fails at once, and a written file
gets the mode a plain open would give it (0o666 less the umask).

Only graph_core is imported up front.  Each subcommand imports the layers
it uses when it runs, so `search` never loads the integrator and
`simulate` loads the bipartition layer only for a certificate.  Only
dynamics imports numpy, and only `simulate`, `verify` and a certificate's
residual check load dynamics, so `search`, and `analyze` of a row with no
certificate to check, run without numpy.

Each subcommand's options are declared once, as data in _COMMANDS.  main()
parses a run's argv with _match when it has the canonical form (the
subcommand, then each option once, spelt in full, as `--name value` or a
bare flag), without importing argparse.  argparse is loaded only by
build_parser(), for --help and for any other argv, so the help text and
every usage error (exit 3) are argparse's own.

run(), the process entry, turns the cyclic garbage collector off before
main() and ends the process without the interpreter's teardown: a run is
short and leaves a few hundred cyclic objects at any size, so the
collector's passes are pure cost.  main() itself leaves the collector as
it finds it, for callers in Python.
"""

from __future__ import annotations

import contextlib
import gc as collector  # graph_core takes the name gc below
import math
import os
import sys
import tempfile
import time
from types import SimpleNamespace
from typing import TYPE_CHECKING, Callable, Iterator, NoReturn, Sequence, TextIO

from . import graph_core as gc
from .errors import (
    BadParameterError,
    FormatError,
    KurapartError,
    NoCertificateError,
    NonFiniteStateError,
    StepUnderflowError,
)

if TYPE_CHECKING:
    import argparse

    from . import bipartition_analysis as ban
    from . import dynamics as dyn

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_IO = 2
EXIT_INVALID = 3
EXIT_INTEGRATION = 4

RANDOM_INIT_ALGORITHM = "numpy PCG64, uniform [0, 2*pi)"


@contextlib.contextmanager
def _atomic_files(*paths: str) -> Iterator[list[TextIO]]:
    """One text handle per path, on a temp file created beside it at once,
    so an output directory that is missing or unwritable, or a path that
    is itself a directory, fails before any work.  When the block ends,
    every temp file is closed, given the mode a plain open would give
    (0o666 less the umask) and renamed into place.  If anything raises,
    every temp file is removed, every target already renamed gets back the
    file it held before (kept as a hard link where the filesystem allows
    one) or is removed, and the original error propagates: a run never
    leaves one new file of the set without the others."""
    temps: list[tuple[TextIO, str, str]] = []
    kept: dict[str, str] = {}  # target -> hard link to the file it held
    renamed: list[str] = []
    try:
        for path in paths:
            target = os.path.abspath(path)
            if os.path.isdir(target):
                raise IsADirectoryError(f"output path {path!r} is a directory")
            fd, tmp = tempfile.mkstemp(dir=os.path.dirname(target), prefix=".tmp.", suffix=".part")
            temps.append((os.fdopen(fd, "w"), tmp, target))
        yield [handle for handle, _, _ in temps]
        umask = os.umask(0)
        os.umask(umask)
        for handle, tmp, _ in temps:
            handle.close()
            os.chmod(tmp, 0o666 & ~umask)
        # the last rename needs no copy: if it fails, its target is untouched
        for _, tmp, target in temps[:-1]:
            if os.path.lexists(target):
                try:
                    os.link(target, tmp + ".old", follow_symlinks=False)
                    kept[target] = tmp + ".old"
                except OSError:
                    pass  # no hard links here: a failed pair is removed, not restored
        for _, tmp, target in temps:
            os.replace(tmp, target)
            renamed.append(target)
    except BaseException:
        for handle, tmp, _ in temps:
            with contextlib.suppress(OSError):
                handle.close()
            with contextlib.suppress(OSError):
                os.unlink(tmp)
        for target in renamed:
            with contextlib.suppress(OSError):
                if target in kept:
                    os.replace(kept.pop(target), target)
                else:
                    os.unlink(target)
        raise
    finally:
        for backup in kept.values():
            with contextlib.suppress(OSError):
                os.unlink(backup)


def _write_text(handle: TextIO, data: str) -> None:
    # 1 MiB slices, so no encoded copy of a whole report exists at once
    for start in range(0, len(data), 1 << 20):
        handle.write(data[start : start + (1 << 20)])


def _atomic_write(path: str, data: str) -> None:
    with _atomic_files(path) as (handle,):
        _write_text(handle, data)


def _load_graph(
    args: SimpleNamespace, check_n: Callable[[int], None] | None = None
) -> tuple[gc.Graph, gc.VertexPartition | None]:
    """The graph of --graph or --builtin (the parser requires exactly one).
    check_n, when given, sees the vertex count before anything is built:
    a file's header or largest label, or a parametrised builtin's name."""
    if args.graph is not None:
        return gc.read_edge_list(_read_text(args.graph), check_n), None
    return _builtin(args.builtin, check_n)


def _read_text(path: str) -> str:
    """An input file's text, read as UTF-8 after any byte-order mark: one
    that is not UTF-8 is malformed."""
    with open(path, "r", encoding="utf-8-sig") as handle:
        try:
            return handle.read()
        except UnicodeDecodeError as exc:
            raise FormatError(f"{path} is not UTF-8 text: {exc.reason}") from None


_FIXED_BUILTINS = {
    "latoro": gc.latoro_profile_graph,
    "kura-eg": gc.right_angle_profile_graph,
    "petersen": lambda: (gc.petersen_graph(), None),
}
# kind of each kind:<int> builtin -> (its vertex count, its builder); the
# builders look gc up when called, so tests can stand in for them
_SIZED_BUILTINS = {
    "linear": (lambda p: 2 * p + 1, lambda p: gc.linear_family_graph(p)),
    "star": (lambda k: k + 1, lambda k: gc.star_graph(k)),
    "cycle": (lambda n: n, lambda n: (gc.cycle_graph(n), None)),
    "complete": (lambda n: n, lambda n: (gc.complete_graph(n), None)),
    "path": (lambda n: n, lambda n: (gc.path_graph(n), None)),
}


def _builtin(
    name: str, check_n: Callable[[int], None] | None = None
) -> tuple[gc.Graph, gc.VertexPartition | None]:
    """The named graph and its partition, if it has one.  check_n, when
    given, sees a kind:<int> builtin's vertex count, read from the name
    alone, before the graph is built; the fixed builtins have at most 10."""
    if name in _FIXED_BUILTINS:
        return _FIXED_BUILTINS[name]()
    kind, sep, arg = name.partition(":")
    if not sep:
        raise BadParameterError(f"unknown builtin {name!r}")
    try:
        value = int(arg)
    except ValueError:
        raise BadParameterError(f"builtin {name!r} needs an integer argument") from None
    if kind not in _SIZED_BUILTINS:
        raise BadParameterError(f"unknown builtin {name!r}")
    count, build = _SIZED_BUILTINS[kind]
    if check_n is not None:
        check_n(count(value))
    return build(value)


def _load_partition(
    args: SimpleNamespace, builtin_part: gc.VertexPartition | None
) -> gc.VertexPartition | None:
    if args.partition is not None:
        return gc.partition_from_json(_read_text(args.partition))
    return builtin_part


def _certificate_for(
    g: gc.Graph, part: gc.VertexPartition | None
) -> ban.Condition2Certificate:
    from . import bipartition_analysis as ban

    if part is None:
        raise BadParameterError("a 2-block partition is required to derive a certificate")
    result = ban.classify_bipartition(g, part)
    if result.certificate is None:
        raise NoCertificateError(
            f"classification {result.classification.value} carries no certificate"
        )
    return result.certificate


_M32, _M64, _M128 = (1 << 32) - 1, (1 << 64) - 1, (1 << 128) - 1
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def _pcg64_uniform_phases(seed: int, n: int) -> list[float]:
    """The n doubles of numpy's Generator(PCG64(seed)).uniform(0, 2*pi, n),
    bit for bit, in Python ints, so a run need not import numpy.random.

    SeedSequence(seed) hashes the seed's 32-bit words, least significant
    first, into a pool of four words and draws eight words from it; PCG64
    (O'Neill 2014) reads them as two little-endian 128-bit numbers, its
    initial state and its stream, and each draw is one LCG step, the XSL-RR
    output and the top 53 bits of it scaled to [0, 2*pi).  Tests pin this
    to numpy's stream for many seeds and lengths.
    """
    words = []
    while True:
        words.append(seed & _M32)
        seed >>= 32
        if not seed:
            break
    hash_const = 0x43B0D7E5

    def hashmix(value: int) -> int:
        nonlocal hash_const
        value ^= hash_const
        hash_const = hash_const * 0x931E8875 & _M32
        value = value * hash_const & _M32
        return value ^ value >> 16

    def mix(x: int, y: int) -> int:
        r = (0xCA01F9DD * x - 0x4973F715 * y) & _M32
        return r ^ r >> 16

    pool = [hashmix(words[i] if i < len(words) else 0) for i in range(4)]
    for i_src in range(4):
        for i_dst in range(4):
            if i_src != i_dst:
                pool[i_dst] = mix(pool[i_dst], hashmix(pool[i_src]))
    for word in words[4:]:
        for i_dst in range(4):
            pool[i_dst] = mix(pool[i_dst], hashmix(word))
    state_words = []
    draw_const = 0x8B51F9DD
    for i in range(8):
        value = pool[i % 4] ^ draw_const
        draw_const = draw_const * 0x58F38DED & _M32
        value = value * draw_const & _M32
        state_words.append(value ^ value >> 16)
    u = [state_words[2 * i] | state_words[2 * i + 1] << 32 for i in range(4)]
    inc = ((u[2] << 64 | u[3]) << 1 | 1) & _M128
    # from state 0, one step gives inc; add the initial state and step again
    state = ((inc + (u[0] << 64 | u[1])) * _PCG64_MULT + inc) & _M128
    # 2*pi * (k * 2**-53) as one rounding: scaling by a power of two is exact
    scale = 2.0 * math.pi * 2.0**-53
    phases = []
    for _ in range(n):
        state = (state * _PCG64_MULT + inc) & _M128
        x = (state >> 64 ^ state) & _M64
        rot = state >> 122
        x = (x >> rot | x << (64 - rot)) & _M64
        phases.append((x >> 11) * scale)
    return phases


def _initial_state(
    args: SimpleNamespace,
    g: gc.Graph,
    part: gc.VertexPartition | None,
    cert: ban.Condition2Certificate | None,
) -> Sequence[float]:
    """The state the run starts from, one phase per vertex, as the --init-*
    option says.  --init-random draws numpy's Generator(PCG64(seed))
    uniform [0, 2*pi) stream, computed in Python ints by
    _pcg64_uniform_phases and pinned to numpy's doubles by a test."""
    # the parser requires exactly one --init-* option
    if args.init_equal is not None:
        if not math.isfinite(args.init_equal):
            raise BadParameterError(f"--init-equal must be finite, got {args.init_equal}")
        return [args.init_equal] * g.n
    if args.init_blocks is not None:
        if part is None:
            raise BadParameterError("--init-blocks needs a partition")
        try:
            values = [float(x) for x in args.init_blocks.split(",")]
        except ValueError:
            raise BadParameterError(f"bad --init-blocks value {args.init_blocks!r}") from None
        if not all(map(math.isfinite, values)):
            raise BadParameterError(f"non-finite --init-blocks value in {args.init_blocks!r}")
        if len(values) != part.k:
            raise BadParameterError(
                f"--init-blocks gave {len(values)} values for {part.k} blocks"
            )
        return [values[i] for i in gc._block_index(part, g.n)]
    if args.init_random:
        if args.seed < 0:
            raise BadParameterError(f"--seed must be >= 0, got {args.seed}")
        return _pcg64_uniform_phases(args.seed, g.n)
    assert cert is not None
    from . import dynamics as dyn

    return dyn.certificate_to_solution(cert, c=0.0).start


def _sync_report_json(
    traj: dyn.Trajectory, args: SimpleNamespace, params: dyn.ModelParams
) -> str:
    import json

    from . import dynamics as dyn

    payload: dict = {
        "model": {"alpha": params.alpha, "omega": params.omega, "lambda": params.coupling},
    }
    if traj.stats is not None:
        payload["solver"] = {
            "method": args.method,
            "dt": args.dt,
            "rel_tol": args.rel_tol,
            "abs_tol": args.abs_tol,
            **traj.stats._asdict(),
        }
    report = dyn.asymptotic_sync_clusters(
        traj, tail_fraction=args.tail_fraction, tol=args.tail_tol, exact_tol=args.sync_tol
    )
    if report.tail_skipped is not None:
        payload["tail"], payload["tail_skipped"] = None, report.tail_skipped
    else:
        payload["tail"] = {
            "fraction": report.tail_fraction,
            "tol": report.tail_tol,
            "start": report.tail_start,
            "clusters": [list(b) for b in report.clusters.blocks],
            "max_deviation": list(report.tail_max_deviation),
            "pairs": [[i, j, label, dev] for i, j, label, dev in report.pair_classes],
        }
    payload["exact"] = {
        "tol": report.exact_tol,
        "blocks": [list(b) for b in report.exact_partition.blocks],
        "chained_pairs": [[i, j, d] for i, j, d in report.chained_pairs],
    }
    return json.dumps(payload, indent=2, sort_keys=True)


def cmd_simulate(args: SimpleNamespace) -> int:
    from . import dynamics as dyn

    # a bad threshold must not cost an integration nor leave a trajectory behind
    dyn._check_sync_thresholds(args.sync_tol, args.tail_tol, args.tail_fraction)
    report_path = args.report
    if report_path is None:
        report_path = os.path.splitext(args.out)[0] + ".sync.json"
    if os.path.realpath(report_path) == os.path.realpath(args.out):
        raise BadParameterError(f"--report and --out name the same file {args.out!r}")
    g, builtin_part = _load_graph(args)
    part = _load_partition(args, builtin_part)
    cert = _certificate_for(g, part) if args.init_cert or args.alpha_from_cert else None
    alpha = cert.alpha if args.alpha_from_cert else args.alpha
    params = dyn.ModelParams(alpha=alpha, omega=args.omega, coupling=args.coupling)
    cfg = dyn.IntegratorConfig(
        t_end=args.t_end,
        method=args.method,
        dt=args.dt,
        rel_tol=args.rel_tol,
        abs_tol=args.abs_tol,
        record_every=args.record_every,
    )
    init = _initial_state(args, g, part, cert)
    # both temp files exist before integrating, so an output that cannot be
    # written costs no integration; each text is written, then freed, before
    # the next is built, and neither file lands unless both are complete
    with _atomic_files(args.out, report_path) as (csv_file, report_file):
        traj = dyn.integrate(g, init, params, cfg)
        _write_text(csv_file, dyn.trajectory_to_csv(traj))
        _write_text(report_file, _sync_report_json(traj, args, params) + "\n")
    return EXIT_OK


def cmd_analyze(args: SimpleNamespace) -> int:
    import json

    from . import bipartition_analysis as ban

    g, builtin_part = _load_graph(args)
    part = _load_partition(args, builtin_part)
    if part is None:
        raise BadParameterError("analyze needs --partition or a builtin with one")
    if part.k == 2:
        result = ban.classify_bipartition(g, part)
        residual = None
        if result.certificate is not None:
            from . import dynamics as dyn

            try:
                residual = dyn.verify_certificate(g, part, result.certificate)
            except BadParameterError:
                residual = None  # degenerate lag outside the model range
        payload = ban.classification_report(part, result, residual=residual)
    else:
        gamma = gc.is_equitable(g, part)
        payload = {
            "blocks": [list(b) for b in part.blocks],
            "classification": "Equitable" if gamma is not None else "NotEquitable",
            "gamma": [list(row) for row in gamma.gamma] if gamma is not None else None,
        }
    text = json.dumps(payload, indent=2, sort_keys=True)
    if args.report is not None:
        _atomic_write(args.report, text + "\n")
    else:
        print(text)
    return EXIT_OK


def cmd_search(args: SimpleNamespace) -> int:
    from . import bipartition_analysis as ban

    g, _ = _load_graph(args, lambda n: ban._check_search_size(n, args.force))
    clock = [time.perf_counter()]
    report = ban.search_all_bipartitions(g, force=args.force, jobs=args.jobs)
    clock.append(time.perf_counter())
    text = ban.format_search_report(report)
    clock.append(time.perf_counter())
    if args.out is not None:
        _atomic_write(args.out, text)
    else:
        sys.stdout.write(text)
        sys.stdout.flush()  # so write_s covers the bytes reaching the pipe or file
    clock.append(time.perf_counter())
    if args.stats:
        import json
        search_s, format_s, write_s = (b - a for a, b in zip(clock, clock[1:]))
        stats = {
            "rows": report.total,
            "nonempty_rows": len(report.masks),
            "distinct_tails": ban._tail_count(report),
            "nodes": report.nodes,
            "pruned": report.pruned,
            "search_s": search_s,
            "format_s": format_s,
            "write_s": write_s,
            "rows_per_s": report.total / (clock[-1] - clock[0]),
        }
        print(json.dumps(stats), file=sys.stderr)
    return EXIT_OK


def _check(label: str, ok: bool, detail: str, failures: list[str]) -> None:
    print(f"{label}: {detail} {'PASS' if ok else 'FAIL'}")
    if not ok:
        failures.append(label)


def _verify_certified(
    name: str,
    g: gc.Graph,
    part: gc.VertexPartition,
    label: str,
    gains: tuple[str, str, str],
    alpha_ref: float,
    offset_ref: float,
    failures: list[str],
) -> ban.Condition2Certificate | None:
    """Check one certified example: its label (a Classification value) and
    exact gains (mu1, mu2, r, as fraction strings), its closed-form lag and
    offset, and the residual of the certified motion."""
    from fractions import Fraction

    from . import bipartition_analysis as ban

    result = ban.classify_bipartition(g, part)
    cert = result.certificate
    ok = (
        result.classification is ban.Classification(label)
        and cert is not None
        and (cert.mu1, cert.mu2, cert.r) == tuple(map(Fraction, gains))
    )
    detail = f"mu1={cert.mu1} mu2={cert.mu2} r={cert.r}" if cert else "no certificate"
    _check(f"{name} gains", ok, f"{result.classification.value} {detail}", failures)
    if cert is None:
        return None
    _check(
        f"{name} angles",
        abs(cert.alpha - alpha_ref) <= 1e-12 and abs(cert.offset - offset_ref) <= 1e-12,
        f"alpha={cert.alpha:.17g} offset={cert.offset:.17g}",
        failures,
    )
    from . import dynamics as dyn

    residual = dyn.verify_certificate(g, part, cert)
    _check(f"{name} residual", residual <= 1e-9, f"residual={residual:.3g}", failures)
    return cert


def _verify_linear(p: int, failures: list[str]) -> None:
    g, part = gc.linear_family_graph(p)
    cert = _verify_certified(
        f"linear p={p}", g, part, "Condition2Unique", (f"-2/{p}", "-1", "-2"),
        math.atan(math.sqrt(3 * p * p - 4 * p - 4) / (p - 2)), math.acos((p + 2) / (2.0 * p)),
        failures,
    )
    if cert is not None:
        slope_gap = abs(p * math.sin(cert.beta) - float(cert.r) * math.sin(cert.alpha))
        _check(f"linear p={p} slope identity", slope_gap <= 1e-12, f"gap={slope_gap:.3g}", failures)


def _verify_regular(d: int, alpha: float, failures: list[str]) -> None:
    from . import dynamics as dyn

    g = gc.complete_graph(d + 1)
    grid = dyn._CHECK_GRID
    params = dyn.ModelParams(alpha=alpha)
    analytic = dyn.analytic_regular_solution(d, alpha, g.n, grid)
    residual = dyn.residual_max(g, analytic, params)
    _check(f"regular d={d} residual", residual <= 1e-14, f"residual={residual:.3g}", failures)
    cfg = dyn.IntegratorConfig(t_end=10.0)
    traj = dyn.integrate(g, [0.0] * g.n, params, cfg, t_eval=grid)
    gap = float(abs(traj.states - analytic.states).max())
    _check(f"regular d={d} integration", gap <= 1e-8, f"max deviation={gap:.3g}", failures)


def cmd_verify(args: SimpleNamespace) -> int:
    failures: list[str] = []
    if args.example in ("linear", "all"):
        _verify_linear(args.p, failures)
    if args.example in ("latoro", "all"):
        _verify_certified(
            "latoro", *gc.latoro_profile_graph(), "Condition2Unique",
            ("-1/2", "-1", "-2"), math.atan(math.sqrt(7.0)), math.acos(0.75),
            failures,
        )
    if args.example in ("regular", "all"):
        _verify_regular(args.d, args.alpha if args.alpha is not None else 0.5, failures)
    if args.example in ("kura-eg", "all"):
        _verify_certified(
            "kura-eg", *gc.right_angle_profile_graph(), "Boundary",
            ("1/2", "1/2", "0"), math.pi / 2, 2 * math.pi / 3,
            failures,
        )
    if failures:
        print(f"verify: FAIL ({len(failures)} check(s))")
        return EXIT_VERIFY_FAILED
    print("verify: PASS")
    return EXIT_OK


class _Option:
    """One option of a subcommand: the add_argument call build_parser makes
    for it, and what _match accepts for it.  A plain class: a NamedTuple
    would cost each run about 0.25 ms to build at import."""

    __slots__ = ("flag", "type", "default", "help", "name", "choices", "store_true", "required")

    def __init__(
        self,
        flag: str,
        type: Callable[[str], object] | None = None,  # None keeps the string
        default: object = None,
        *,
        help: str | None = None,
        dest: str | None = None,  # None: the flag's name, dashes as underscores
        choices: tuple[str, ...] | None = None,
        store_true: bool = False,
        required: bool = False,
    ) -> None:
        self.flag, self.type, self.default, self.help = flag, type, default, help
        self.name = dest or flag[2:].replace("-", "_")
        self.choices, self.store_true, self.required = choices, store_true, required


# a tuple of options is a mutually exclusive group of which one is required
_GRAPH_SOURCE = (
    _Option("--graph", help="edge list file: 'u v' lines, optional 'n N' header"),
    _Option(
        "--builtin",
        help="named graph: linear:<p>, latoro, kura-eg, star:<n>, cycle:<n>, "
        "complete:<n>, path:<n>, petersen",
    ),
)

# subcommand -> its help, its handler and its options, in the order that
# --help and argparse's usage lines list them
_COMMANDS: dict[str, tuple[str, Callable[[SimpleNamespace], int], tuple]] = {
    "simulate": ("integrate and write trajectory plus sync report", cmd_simulate, (
        _GRAPH_SOURCE,
        (
            _Option("--alpha", float, help="phase lag in (0, pi/2]"),
            _Option(
                "--alpha-from-cert",
                store_true=True,
                help="take the lag from the partition's certificate",
            ),
        ),
        _Option("--omega", float, 0.0, help="common drift (default 0)"),
        _Option("--lambda", float, 1.0, help="coupling gain (default 1)", dest="coupling"),
        _Option("--partition", help="partition JSON file"),
        _Option("--method", default="rk45", choices=("rk4", "rk45")),
        _Option("--dt", float, help="fixed step (rk4 only)"),
        _Option("--rel-tol", float, 1e-9),
        _Option("--abs-tol", float, 1e-11),
        _Option("--t-end", float, 10.0),
        _Option("--record-every", int, 1),
        (
            _Option("--init-equal", float, help="all phases start at this value"),
            _Option("--init-blocks", help="comma-separated value per partition block"),
            _Option("--init-random", store_true=True, help=RANDOM_INIT_ALGORITHM),
            _Option("--init-cert", store_true=True, help="start on the certified closed form"),
        ),
        _Option("--seed", int, 0),
        _Option("--sync-tol", float, 1e-6),
        _Option("--tail-fraction", float, 0.2),
        _Option("--tail-tol", float, 1e-4),
        _Option("--out", help="trajectory CSV path", required=True),
        _Option("--report", help="sync report path (default: <out>.sync.json)"),
    )),
    "analyze": ("classify one partition", cmd_analyze, (
        _GRAPH_SOURCE,
        _Option("--partition", help="partition JSON file"),
        _Option("--report", help="write JSON here instead of stdout"),
    )),
    "search": ("classify every bipartition", cmd_search, (
        _GRAPH_SOURCE,
        _Option("--jobs", int, 1, help="worker processes, at most the cpu count (default 1)"),
        _Option("--force", store_true=True, help="ignore the size cap"),
        _Option("--out", help="write the text report here instead of stdout"),
        _Option(
            "--stats",
            store_true=True,
            help="write row counts, search-tree nodes and cuts, and per-phase times "
            "as one JSON object to stderr",
        ),
    )),
    "verify": ("self-checks on the named constructions", cmd_verify, (
        _Option(
            "--example", default="all", choices=("linear", "latoro", "regular", "kura-eg", "all")
        ),
        _Option("--p", int, 4, help="linear family size (even, >= 4)"),
        _Option("--d", int, 3, help="regular degree"),
        _Option("--alpha", float, help="lag for the regular check (default 0.5)"),
    )),
}


def _options(items: tuple) -> Iterator[_Option]:
    for item in items:
        yield from (item,) if isinstance(item, _Option) else item


def build_parser() -> argparse.ArgumentParser:
    """The argparse parser of the _COMMANDS table, for --help and for the
    argument lists _match leaves to it.  argparse is imported only here."""
    import argparse

    class Parser(argparse.ArgumentParser):
        """Usage errors exit 3 like every other invalid input."""

        def error(self, message: str) -> NoReturn:
            raise BadParameterError(f"{self.prog}: {message}")

    def add(container: argparse._ActionsContainer, option: _Option) -> None:
        if option.store_true:
            container.add_argument(
                option.flag, dest=option.name, action="store_true", help=option.help
            )
        else:
            container.add_argument(
                option.flag, dest=option.name, type=option.type, default=option.default,
                choices=option.choices, required=option.required, help=option.help,
            )

    parser = Parser(
        prog="kurapart",
        description="Phase-locked structure analysis for lagged oscillator networks on graphs",
    )
    subs = parser.add_subparsers(dest="command", required=True)
    for command, (summary, func, items) in _COMMANDS.items():
        sub = subs.add_parser(command, help=summary)
        for item in items:
            if isinstance(item, _Option):
                add(sub, item)
            else:
                group = sub.add_mutually_exclusive_group(required=True)
                for option in item:
                    add(group, option)
        sub.set_defaults(func=func)
    return parser


def _match(argv: Sequence[str]) -> SimpleNamespace | None:
    """The attributes build_parser() would parse argv into, when argv has
    the one form every run can be written in: a subcommand, then each
    option at most once, spelt in full, as `--name value` or a bare flag,
    with no value that starts with '-', every value converting and within
    its choices, exactly one option of each group and every required
    option.  None for any other argv, which argparse then parses or
    refuses in its own words: --help, an abbreviation, --name=value, a
    repeat, a negative number, a bad value."""
    if not argv or argv[0] not in _COMMANDS:
        return None
    _, func, items = _COMMANDS[argv[0]]
    options = {option.flag: option for option in _options(items)}
    given: dict[str, object] = {}
    i = 1
    while i < len(argv):
        option = options.get(argv[i])
        if option is None or option.flag in given:
            return None
        if option.store_true:
            given[option.flag] = True
            i += 1
            continue
        if i + 1 == len(argv) or argv[i + 1].startswith("-"):
            return None
        value = argv[i + 1]
        if option.type is not None:
            try:
                value = option.type(value)
            except ValueError:
                return None
        if option.choices is not None and value not in option.choices:
            return None
        given[option.flag] = value
        i += 2
    for item in items:
        if not isinstance(item, _Option) and sum(o.flag in given for o in item) != 1:
            return None
    if any(o.required and o.flag not in given for o in options.values()):
        return None
    args = SimpleNamespace(command=argv[0], func=func)
    for option in options.values():
        default = False if option.store_true else option.default
        setattr(args, option.name, given.get(option.flag, default))
    return args


def main(argv: Sequence[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    try:
        args = _match(argv)
        if args is None:
            args = build_parser().parse_args(argv, SimpleNamespace())
        return args.func(args)
    except (StepUnderflowError, NonFiniteStateError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INTEGRATION
    except KurapartError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO


def _observed() -> bool:
    """Whether a tracer, a profiler or a sys.monitoring tool (3.12+) watches
    this process: such a tool writes its report after the program returns."""
    monitoring = getattr(sys, "monitoring", None)
    return (
        sys.gettrace() is not None
        or sys.getprofile() is not None
        # sys.monitoring tool ids run from 0 to 5
        or (monitoring is not None and any(map(monitoring.get_tool, range(6))))
    )


def run() -> NoReturn:
    """The process entry of `python -m kurapart.cli` and the `kurapart`
    script: main() with the cyclic garbage collector off, then the exit,
    without the interpreter's teardown.

    A whole main() leaves a few hundred cyclic objects whatever the run's
    size, while the collector's passes, most of them over numpy's import,
    cost a simulate run several milliseconds.  Reference counting still
    frees everything else at once.  main() called in process, and the
    library, keep the collector as the caller set it.

    main() has closed and renamed every output file and joined any worker
    pool by the time it returns, so once stdout and stderr are flushed
    nothing is left to write; freeing numpy's and the standard library's
    modules would cost a run about 20 ms more.  A failed flush of stdout
    is an I/O error, reported in one line unless main() reported one.  The
    SystemExit that argparse raises after printing --help ends the run
    the same way, with its code, so the help text is flushed too.
    An exception escaping main() propagates as usual, and a watched process
    exits normally, so its tool can write its report."""
    collector.disable()
    try:
        code = main()
    except SystemExit as exc:
        code = exc.code  # argparse's int, once it has printed --help
    try:
        if sys.stdout is not None:
            sys.stdout.flush()
    except OSError as exc:
        if code != EXIT_IO:  # search's own flush may have failed on these bytes
            print(f"error: {exc}", file=sys.stderr)
        code = EXIT_IO
    if sys.stderr is not None:
        sys.stderr.flush()
    if _observed():
        sys.exit(code)
    os._exit(code)


if __name__ == "__main__":
    run()
