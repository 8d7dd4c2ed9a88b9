"""Command-line interface: the demo workflow (§VII) without the GUI.

Subcommands::

    imprecise integrate a.xml b.xml -o out.pxml --rules genre,title,year
    imprecise query out.pxml '//movie[.//genre="Horror"]/title'
    imprecise query out.pxml --batch '//movie/title' '//movie/year'
    imprecise query out.pxml --queries-file workload.txt --cache-stats
    imprecise query out.pxml //movie --aggregate count
    imprecise query out.pxml //price --aggregate sum
    imprecise stats out.pxml
    imprecise worlds out.pxml --limit 20
    imprecise feedback out.pxml '//movie/title' 'Jaws' --correct -o out.pxml
    imprecise estimate a.xml b.xml --rules title --joint
    imprecise serve store/ --cache-dir cache/ --exec 'query movies //movie/title'
    imprecise serve store/ --cache-dir cache/ --http 127.0.0.1:8080
    imprecise serve store/ --cache-dir cache/ --http 127.0.0.1:8080 --workers 4

``imprecise serve`` runs the :class:`~repro.dbms.service.DataspaceService`
over a store directory: commands come from ``--exec`` flags (in order) or
line-by-line from stdin, answers go to stdout, and — with ``--cache-dir``
— priced answers persist so a restarted service starts warm.  See
``docs/api.md`` for the command protocol.  With ``--http HOST:PORT`` the
same service is exposed as a JSON API over a dependency-free asyncio
HTTP server (see ``docs/http_api.md``); shut down with SIGINT/SIGTERM.
``--workers N`` pre-forks N such servers behind a consistent-hash
document-sharding router (:mod:`repro.server.multiproc`).

Exit status: 0 on success, 1 on any library error (message on stderr).
"""

from __future__ import annotations

import argparse
import asyncio
import shlex
import signal
import sys
from pathlib import Path
from typing import Optional, Sequence

from .core.engine import IntegrationConfig, Integrator
from .core.estimate import estimate_integration
from .dbms.service import DataspaceService, format_cache_stats
from .core.oracle import ConstantPrior, Oracle
from .core.rules import PersonNameReconciler
from .errors import ImpreciseError
from .experiments import standard_rules
from .feedback.conditioning import FeedbackSession
from .probability import format_percent
from .pxml.model import PXDocument
from .pxml.serialize import parse_pxml, pxml_to_text
from .pxml.stats import tree_stats
from .pxml.worlds import iter_worlds
from .query.engine import ProbQueryEngine, QueryEngine
from .query.fusion import DEFAULT_RRF_K, FUSION_STRATEGIES
from .xmlkit.dtd import parse_dtd
from .xmlkit.parser import parse_document
from .xmlkit.serializer import serialize


def _load_plain(path: str):
    return parse_document(Path(path).read_text(encoding="utf-8"))


def _load_pxml(path: str) -> PXDocument:
    return parse_pxml(Path(path).read_text(encoding="utf-8"))


def _build_config(args: argparse.Namespace) -> IntegrationConfig:
    rule_names = [name for name in (args.rules or "").split(",") if name]
    oracle = Oracle(standard_rules(*rule_names), prior=ConstantPrior(args.prior))
    dtd = None
    if args.dtd:
        dtd = parse_dtd(Path(args.dtd).read_text(encoding="utf-8"))
    return IntegrationConfig(
        oracle=oracle,
        dtd=dtd,
        factor_components=not args.joint,
        max_possibilities=args.max_possibilities,
        reconcilers=(PersonNameReconciler(("director", "actor")),),
    )


def _cmd_integrate(args: argparse.Namespace) -> int:
    config = _build_config(args)
    result = Integrator(config).integrate(_load_plain(args.source_a), _load_plain(args.source_b))
    Path(args.output).write_text(
        pxml_to_text(result.document, pretty=args.pretty), encoding="utf-8"
    )
    print(result.report.summary())
    return 0


def _cmd_estimate(args: argparse.Namespace) -> int:
    config = _build_config(args)
    estimate = estimate_integration(
        _load_plain(args.source_a), _load_plain(args.source_b), config
    )
    print(f"nodes:         {estimate.total_nodes:,}")
    print(f"worlds:        {estimate.world_count:,}")
    print(f"possibilities: {estimate.possibility_count:,}")
    for group in estimate.groups:
        print(
            f"  group <{group.tag}> under <{group.parent_tag}>:"
            f" {group.components} component(s),"
            f" {group.joint_matchings:,} joint matchings"
        )
    return 0


def _cmd_query(args: argparse.Namespace) -> int:
    queries = list(args.xpath)
    if args.queries_file:
        lines = Path(args.queries_file).read_text(encoding="utf-8").splitlines()
        queries.extend(
            line.strip() for line in lines if line.strip() and not line.lstrip().startswith("#")
        )
    if not queries:
        print("error: no queries given", file=sys.stderr)
        return 1
    if args.text is not None and not args.aggregate:
        raise ImpreciseError("--text requires --aggregate")
    if args.all and args.glob is not None:
        raise ImpreciseError("pass either --all or --glob PATTERN, not both")
    if args.all or args.glob is not None:
        return _run_search(args, queries)
    if args.fusion is not None or args.rrf_k is not None:
        raise ImpreciseError("--fusion/--rrf-k require --all or --glob")
    if args.deadline_ms is not None or args.allow_partial:
        raise ImpreciseError(
            "--deadline-ms/--allow-partial require --all or --glob"
        )
    document = _load_pxml(args.document)
    if args.aggregate:
        if args.batch:
            raise ImpreciseError(
                "--batch does not combine with --aggregate (each target"
                " is already one exact distribution)"
            )
        return _run_aggregates(document, args, queries)
    engine = QueryEngine(document, use_cache=not args.no_cache)
    if args.batch or len(queries) > 1:
        answers = engine.run_batch(queries)
        for query_text, answer in zip(queries, answers):
            print(f"== {query_text}")
            print(answer.as_table())
    else:
        print(engine.run(queries[0]).as_table())
    if args.cache_stats:
        stats = engine.cache_stats()
        print(
            f"cache: {stats.get('entries', 0):,} entries,"
            f" {stats.get('hits', 0):,} hits, {stats.get('misses', 0):,} misses",
            file=sys.stderr,
        )
    return 0


def _run_search(args: argparse.Namespace, queries: Sequence[str]) -> int:
    """``imprecise query STORE_DIR XPATH... --all|--glob PATTERN
    [--fusion prob|rrf] [--rrf-k K]`` — fan each query across the
    store's documents and print one fused ranked result (with
    ``document#rank`` provenance per value); with ``--aggregate KIND``,
    print the exact mixture distribution instead."""
    directory = Path(args.document)
    if not directory.is_dir():
        raise ImpreciseError(
            "--all/--glob query a document store directory"
            f" (as served by 'imprecise serve'), got {args.document!r}"
        )
    if args.batch:
        raise ImpreciseError(
            "--batch does not combine with --all/--glob (a fan-out"
            " already prices every document in one pass)"
        )
    strategy = args.fusion if args.fusion is not None else "prob"
    rrf_k = args.rrf_k if args.rrf_k is not None else DEFAULT_RRF_K
    if args.aggregate and args.fusion is not None:
        raise ImpreciseError(
            "--aggregate fan-outs always fuse by exact probability"
            " mixture; --fusion only applies to ranked queries"
        )
    if args.aggregate and args.allow_partial:
        raise ImpreciseError(
            "--allow-partial only applies to ranked fan-outs: a partial"
            " aggregate would renormalize into the wrong distribution"
        )
    from .deadline import Deadline
    from .query.aggregates import format_distribution

    with DataspaceService(directory=directory) as service:
        for query_text in queries:
            # Each query gets its own fresh budget: the flag bounds one
            # fan-out, not the whole workload.
            deadline = (
                Deadline.from_ms(args.deadline_ms)
                if args.deadline_ms is not None
                else None
            )
            if len(queries) > 1 or args.aggregate:
                label = f"== {query_text}"
                if args.aggregate:
                    label = f"== {args.aggregate} {query_text}"
                    if args.text is not None:
                        label += f" [text={args.text!r}]"
                print(label)
            if args.aggregate:
                distribution = service.aggregate_all(
                    args.aggregate, query_text, text=args.text,
                    glob=args.glob, deadline=deadline,
                )
                print(format_distribution(distribution))
            else:
                fused = service.query_all(
                    query_text,
                    glob=args.glob,
                    strategy=strategy,
                    rrf_k=rrf_k,
                    deadline=deadline,
                    allow_partial=args.allow_partial,
                )
                print(fused.as_table())
        if args.cache_stats:
            print(format_cache_stats(service.cache_stats()), file=sys.stderr)
    return 0


def _run_aggregates(
    document: PXDocument, args: argparse.Namespace, targets: Sequence[str]
) -> int:
    """``imprecise query DOC TARGET... --aggregate KIND [--text T]`` —
    exact aggregate distributions by tree convolution (no enumeration)."""
    from .query.aggregates import (
        aggregate_distribution,
        expected_value,
        format_distribution,
    )

    for target in targets:
        distribution = aggregate_distribution(
            document,
            args.aggregate,
            target,
            text=args.text,
            use_cache=not args.no_cache,
        )
        label = f"== {args.aggregate} {target}"
        if args.text is not None:
            label += f" [text={args.text!r}]"
        print(label)
        print(format_distribution(distribution))
        if args.aggregate in ("count", "sum"):
            print(f"expected: {expected_value(distribution)}")
    if args.cache_stats:
        from .pxml.events_cache import cache_for

        # Only the aggregate side-table counter is meaningful here: the
        # hit/miss counters belong to the event-probability memo, which
        # a pure aggregate run never touches.
        stats = {} if args.no_cache else cache_for(document).stats()
        print(
            f"cache: {stats.get('aggregates', 0):,} aggregate"
            " distribution(s) memoized",
            file=sys.stderr,
        )
    return 0


def _cmd_stats(args: argparse.Namespace) -> int:
    stats = tree_stats(_load_pxml(args.document))
    print(f"total nodes:       {stats.total:,}")
    print(f"  probability:     {stats.probability_nodes:,}")
    print(f"  possibility:     {stats.possibility_nodes:,}")
    print(f"  element:         {stats.element_nodes:,}")
    print(f"  text:            {stats.text_nodes:,}")
    print(f"choice points:     {stats.choice_points:,}")
    print(f"max branching:     {stats.max_branching:,}")
    print(f"possible worlds:   {stats.world_count:,}")
    return 0


def _cmd_worlds(args: argparse.Namespace) -> int:
    document = _load_pxml(args.document)
    for index, world in enumerate(iter_worlds(document, limit=args.limit)):
        print(f"[{format_percent(world.probability, digits=2)}] {serialize(world.document)}")
        if index + 1 >= args.limit:
            break
    return 0


def _cmd_feedback(args: argparse.Namespace) -> int:
    session = FeedbackSession(_load_pxml(args.document))
    if args.correct:
        step = session.confirm(args.xpath, args.value)
    else:
        step = session.reject(args.xpath, args.value)
    output = args.output or args.document
    Path(output).write_text(pxml_to_text(session.document), encoding="utf-8")
    print(
        f"{step.kind} {step.value!r} (prior {format_percent(step.prior)}):"
        f" worlds {step.worlds_before:,} → {step.worlds_after:,},"
        f" nodes {step.nodes_before:,} → {step.nodes_after:,}"
    )
    return 0


def _serve_dispatch(service: DataspaceService, line: str) -> bool:
    """Execute one service-protocol line; returns False on ``quit``.

    Protocol (one command per line, shell-style quoting)::

        list
        put NAME FILE              # load an .xml/.pxml file into the store
        query NAME XPATH
        search XPATH [GLOB [STRATEGY [K]]]       # fan-out + fusion; GLOB
                                                 # default '*', STRATEGY
                                                 # prob|rrf, K the rrf
                                                 # dampening constant
        batch NAME XPATH [XPATH ...]
        aggregate NAME KIND TARGET [TEXT]        # KIND: count|sum|min|max|exists
        stats NAME
        integrate NAME_A NAME_B OUTPUT [RULES]   # RULES: comma list
        feedback NAME XPATH VALUE correct|incorrect
        delete NAME
        cache-stats
        quit
    """
    tokens = shlex.split(line, comments=True)
    if not tokens:
        return True
    command, arguments = tokens[0], tokens[1:]
    if command in ("quit", "exit"):
        return False
    if command == "list":
        for entry in service.documents():
            print(f"{entry['kind']:4s} {entry['name']}")
        return True
    if command == "put":
        if len(arguments) != 2:
            raise ImpreciseError("usage: put NAME FILE")
        name, path = arguments
        text = Path(path).read_text(encoding="utf-8")
        if path.endswith(".pxml"):
            service.load_document(name, parse_pxml(text))
        else:
            service.load(name, text)
        print(f"stored {name}")
        return True
    if command == "query":
        if len(arguments) != 2:
            raise ImpreciseError("usage: query NAME XPATH")
        print(service.query(arguments[0], arguments[1]).as_table())
        return True
    if command == "search":
        if not 1 <= len(arguments) <= 4:
            raise ImpreciseError("usage: search XPATH [GLOB [STRATEGY [K]]]")
        fused = service.query_all(
            arguments[0],
            glob=arguments[1] if len(arguments) >= 2 else "*",
            strategy=arguments[2] if len(arguments) >= 3 else "prob",
            rrf_k=arguments[3] if len(arguments) == 4 else DEFAULT_RRF_K,
        )
        print(fused.as_table())
        return True
    if command == "batch":
        if len(arguments) < 2:
            raise ImpreciseError("usage: batch NAME XPATH [XPATH ...]")
        name, queries = arguments[0], arguments[1:]
        for query_text, answer in zip(queries, service.run_batch(name, queries)):
            print(f"== {query_text}")
            print(answer.as_table())
        return True
    if command == "aggregate":
        if len(arguments) not in (3, 4):
            raise ImpreciseError(
                "usage: aggregate NAME KIND TARGET [TEXT]"
            )
        from .query.aggregates import format_distribution

        distribution = service.aggregate(
            arguments[0],
            arguments[1],
            arguments[2],
            text=arguments[3] if len(arguments) == 4 else None,
        )
        print(format_distribution(distribution))
        return True
    if command == "stats":
        if len(arguments) != 1:
            raise ImpreciseError("usage: stats NAME")
        print(service.stats(arguments[0]).summary())
        return True
    if command == "integrate":
        if len(arguments) not in (3, 4):
            raise ImpreciseError("usage: integrate NAME_A NAME_B OUTPUT [RULES]")
        rule_names = [n for n in (arguments[3] if len(arguments) == 4 else "").split(",") if n]
        report = service.integrate(
            arguments[0], arguments[1], arguments[2],
            rules=standard_rules(*rule_names),
        )
        print(report.summary())
        return True
    if command == "feedback":
        if len(arguments) != 4 or arguments[3] not in ("correct", "incorrect"):
            raise ImpreciseError(
                "usage: feedback NAME XPATH VALUE correct|incorrect"
            )
        step = service.feedback(
            arguments[0], arguments[1], arguments[2],
            correct=arguments[3] == "correct",
        )
        print(
            f"{step.kind} {step.value!r}:"
            f" worlds {step.worlds_before:,} → {step.worlds_after:,}"
        )
        return True
    if command == "delete":
        if len(arguments) != 1:
            raise ImpreciseError("usage: delete NAME")
        service.delete(arguments[0])
        print(f"deleted {arguments[0]}")
        return True
    if command == "cache-stats":
        print(format_cache_stats(service.cache_stats()))
        return True
    raise ImpreciseError(f"unknown service command {command!r}")


def _parse_http_address(text: str) -> tuple:
    """``HOST:PORT`` (or bare ``PORT``) → ``(host, port)``; port 0 binds
    an ephemeral port that the startup line reports.  IPv6 hosts use the
    usual bracket syntax (``[::1]:8080``); the brackets are stripped —
    ``getaddrinfo`` wants the bare address."""
    host, _, port_text = text.rpartition(":")
    bracketed = host.startswith("[") and host.endswith("]")
    host = host.strip("[]") or "127.0.0.1"
    try:
        port = int(port_text)
        if not 0 <= port <= 65535:
            raise ValueError
        if ":" in host and not bracketed:
            # A bare IPv6 address ("::1") would silently misparse into
            # host="::"/port=1 and die much later at bind.
            raise ValueError
    except ValueError:
        raise ImpreciseError(
            f"invalid --http address {text!r}"
            " (expected HOST:PORT; bracket IPv6 hosts: [::1]:PORT)"
        ) from None
    return host, port


def _serve_http(
    service: DataspaceService,
    host: str,
    port: int,
    *,
    max_pending: Optional[int] = None,
    slow_ms: int = 500,
) -> int:
    """Run the asyncio HTTP front until SIGINT/SIGTERM, then shut down
    gracefully (in-flight requests finish, idle connections close)."""
    from .server.app import ServerApp
    from .server.http import HTTPServer

    app = ServerApp(service, max_pending=max_pending, slow_ms=slow_ms)

    async def _run() -> None:
        server = HTTPServer(app, host, port)
        bound_host, bound_port = await server.start()
        # Parsed by clients/tests launching the server as a subprocess;
        # keep the shape stable (a valid URL — IPv6 hosts re-bracketed).
        display = f"[{bound_host}]" if ":" in bound_host else bound_host
        print(f"serving on http://{display}:{bound_port}", flush=True)
        stop = asyncio.Event()
        loop = asyncio.get_running_loop()
        for signum in (signal.SIGINT, signal.SIGTERM):
            try:
                loop.add_signal_handler(signum, stop.set)
            except (NotImplementedError, RuntimeError):
                pass  # e.g. Windows event loops; Ctrl-C still raises
        try:
            await stop.wait()
        except KeyboardInterrupt:
            pass
        finally:
            await server.shutdown()
            app.close()

    try:
        asyncio.run(_run())
    except KeyboardInterrupt:
        pass
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    if args.http and args.commands:
        raise ImpreciseError(
            "--http runs the network front; --exec commands drive the"
            " line protocol — use one or the other"
        )
    if args.workers is not None and args.workers < 1:
        raise ImpreciseError(f"--workers must be >= 1, got {args.workers}")
    if args.max_pending is not None and args.max_pending < 1:
        raise ImpreciseError(
            f"--max-pending must be >= 1, got {args.max_pending}"
        )
    if args.slow_ms < 0:
        raise ImpreciseError(f"--slow-ms must be >= 0, got {args.slow_ms}")
    if args.workers is not None and args.workers > 1:
        if not args.http:
            raise ImpreciseError("--workers N requires --http HOST:PORT")
        if args.cache_stats:
            raise ImpreciseError(
                "--cache-stats reports one process's counters; with"
                " --workers scrape GET /stats on the router instead"
            )
        from .server.multiproc import run_multiproc

        # The children own the store and cache; the parent only routes.
        # Tuning flags are forwarded so every worker serves identically.
        worker_args: list = ["--slow-ms", str(args.slow_ms)]
        if args.max_cached is not None:
            worker_args += ["--max-cached", str(args.max_cached)]
        if args.cache_max_rows is not None:
            worker_args += ["--cache-max-rows", str(args.cache_max_rows)]
        if args.max_pending is not None:
            worker_args += ["--max-pending", str(args.max_pending)]
        host, port = _parse_http_address(args.http)
        return run_multiproc(
            args.directory,
            host,
            port,
            args.workers,
            cache_dir=args.cache_dir,
            worker_args=worker_args,
            slow_ms=args.slow_ms,
        )
    service = DataspaceService(
        directory=args.directory,
        cache_dir=args.cache_dir,
        max_cached_documents=args.max_cached,
        cache_max_rows=args.cache_max_rows,
    )
    status = 0
    try:
        if args.http:
            status = _serve_http(
                service,
                *_parse_http_address(args.http),
                max_pending=args.max_pending,
                slow_ms=args.slow_ms,
            )
        else:
            if args.commands:
                lines = iter(args.commands)
            else:
                lines = (line.rstrip("\n") for line in sys.stdin)
            for line in lines:
                try:
                    if not _serve_dispatch(service, line):
                        break
                except (ImpreciseError, OSError, ValueError) as error:
                    # One bad command must not kill a serving loop.
                    print(f"error: {error}", file=sys.stderr)
                    status = 1
        if args.cache_stats:
            # Same counters, same rendering as the `cache-stats` protocol
            # command and the HTTP front's GET /stats (one code path).
            print(format_cache_stats(service.cache_stats()), file=sys.stderr)
    finally:
        service.close()
    return status


def build_parser() -> argparse.ArgumentParser:
    """The ``imprecise`` argument parser (one subcommand per verb)."""
    parser = argparse.ArgumentParser(
        prog="imprecise",
        description="IMPrECISE: good-is-good-enough probabilistic XML data integration",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_integration_options(p: argparse.ArgumentParser) -> None:
        p.add_argument("source_a", help="first source XML file")
        p.add_argument("source_b", help="second source XML file")
        p.add_argument("--rules", default="", help="comma list: genre,title,year")
        p.add_argument("--dtd", default=None, help="DTD file with cardinalities")
        p.add_argument("--prior", default="1/2", help="uncertain-match prior")
        p.add_argument("--joint", action="store_true",
                       help="joint (unfactored) representation, as in the paper")
        p.add_argument("--max-possibilities", type=int, default=20_000)

    p_int = sub.add_parser("integrate", help="integrate two XML sources")
    add_integration_options(p_int)
    p_int.add_argument("-o", "--output", required=True, help="output .pxml file")
    p_int.add_argument("--pretty", action="store_true")
    p_int.set_defaults(handler=_cmd_integrate)

    p_est = sub.add_parser("estimate", help="size-estimate an integration without running it")
    add_integration_options(p_est)
    p_est.set_defaults(handler=_cmd_estimate)

    p_query = sub.add_parser("query", help="ranked probabilistic XPath query")
    p_query.add_argument("document",
                         help=".pxml file (with --all/--glob: a document"
                              " store directory)")
    p_query.add_argument("xpath", nargs="*", help="one or more XPath queries")
    p_query.add_argument("--all", action="store_true",
                         help="fan the query across every document in the"
                              " store directory and fuse the answers")
    p_query.add_argument("--glob", default=None, metavar="PATTERN",
                         help="like --all, restricted to document names"
                              " matching a shell-style pattern")
    p_query.add_argument("--fusion", default=None,
                         choices=FUSION_STRATEGIES,
                         help="fusion strategy for --all/--glob:"
                              " 'prob' (exact probability-weighted, default)"
                              " or 'rrf' (exact-rational reciprocal rank)")
    p_query.add_argument("--rrf-k", default=None, type=int, metavar="K",
                         help="reciprocal-rank-fusion dampening constant"
                              f" (default {DEFAULT_RRF_K})")
    p_query.add_argument("--deadline-ms", default=None, type=int, metavar="MS",
                         help="with --all/--glob: bound each fan-out to"
                              " this wall-clock budget (error when blown"
                              " unless --allow-partial)")
    p_query.add_argument("--allow-partial", action="store_true",
                         help="with --deadline-ms: print whatever"
                              " finished, marking omitted documents,"
                              " instead of erroring on a blown budget")
    p_query.add_argument("--batch", action="store_true",
                         help="evaluate all queries as one batch (one"
                              " query after another over a shared"
                              " event-probability cache)")
    p_query.add_argument("--queries-file", default=None,
                         help="file with one XPath per line ('#' comments)")
    p_query.add_argument("--no-cache", action="store_true",
                         help="disable the per-document probability cache")
    p_query.add_argument("--cache-stats", action="store_true",
                         help="print cache counters to stderr")
    p_query.add_argument("--aggregate", metavar="KIND", default=None,
                         choices=("count", "sum", "min", "max", "exists"),
                         help="treat each query as an aggregate target"
                              " (//tag) and print its exact distribution")
    p_query.add_argument("--text", default=None, metavar="VALUE",
                         help="with --aggregate: only elements whose leaf"
                              " text equals VALUE count as matches")
    p_query.set_defaults(handler=_cmd_query)

    p_stats = sub.add_parser("stats", help="uncertainty statistics of a .pxml file")
    p_stats.add_argument("document")
    p_stats.set_defaults(handler=_cmd_stats)

    p_worlds = sub.add_parser("worlds", help="enumerate possible worlds")
    p_worlds.add_argument("document")
    p_worlds.add_argument("--limit", type=int, default=20)
    p_worlds.set_defaults(handler=_cmd_worlds)

    p_fb = sub.add_parser("feedback", help="condition on answer feedback")
    p_fb.add_argument("document")
    p_fb.add_argument("xpath")
    p_fb.add_argument("value")
    truth = p_fb.add_mutually_exclusive_group(required=True)
    truth.add_argument("--correct", action="store_true", dest="correct")
    truth.add_argument("--incorrect", action="store_false", dest="correct")
    p_fb.add_argument("-o", "--output", default=None,
                      help="output file (default: overwrite input)")
    p_fb.set_defaults(handler=_cmd_feedback)

    p_serve = sub.add_parser(
        "serve",
        help="run the dataspace service over a store directory"
             " (commands from --exec or stdin)",
    )
    p_serve.add_argument("directory", help="document store directory")
    p_serve.add_argument("--cache-dir", default=None,
                         help="persistent answer-cache directory (answers"
                              " survive restarts; omit for in-memory only)")
    p_serve.add_argument("--max-cached", type=int, default=None,
                         help="LRU bound on materialized documents")
    p_serve.add_argument("--cache-max-rows", type=int, default=None,
                         help="row bound on the persistent answer cache"
                              " (least-recently-hit rows evicted beyond it)")
    p_serve.add_argument("--http", metavar="HOST:PORT", default=None,
                         help="serve the JSON API over HTTP on this address"
                              " (PORT 0 binds an ephemeral port; see"
                              " docs/http_api.md)")
    p_serve.add_argument("--workers", type=int, default=None,
                         help="pre-fork N worker processes behind a"
                              " consistent-hash sharding router"
                              " (requires --http; see docs/http_api.md)")
    p_serve.add_argument("--max-pending", type=int, default=None,
                         help="shed requests with 503 beyond this many"
                              " already in flight (default: unbounded)")
    p_serve.add_argument("--slow-ms", type=int, default=500,
                         help="log requests slower than this many"
                              " milliseconds to the GET /stats slow-query"
                              " ring (0 disables; default 500)")
    p_serve.add_argument("--exec", dest="commands", action="append",
                         metavar="CMD", default=None,
                         help="run one service command and continue"
                              " (repeatable; disables the stdin loop)")
    p_serve.add_argument("--cache-stats", action="store_true",
                         help="print cache counters to stderr on exit"
                              " (same counters GET /stats serves)")
    p_serve.set_defaults(handler=_cmd_serve)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns the process exit status."""
    parser = build_parser()
    # parse_known_args so `query doc --batch //a //b` works: argparse
    # refuses positionals after an optional when the positional list was
    # already (greedily, possibly emptily) matched; fold the leftovers
    # back into the query list for the one command where that's meaningful.
    args, extra = parser.parse_known_args(argv)
    if extra:
        if getattr(args, "command", None) == "query" and all(
            not token.startswith("-") for token in extra
        ):
            args.xpath = list(args.xpath) + extra
        else:
            parser.error(f"unrecognized arguments: {' '.join(extra)}")
    try:
        return args.handler(args)
    except (ImpreciseError, OSError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
