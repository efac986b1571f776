"""The benchmark's three closed-loop workloads.

Each workload runs in one process on one thread with zero think time: the
next operation starts as soon as the previous one returned.  Inputs are
generated from the seed before anything is timed; the engine only sees the
generated inputs.  Every operation's output is checked against an oracle
outside the timed region, and the amount of work is a fixed function of
``seconds`` so that a seed always produces the same operations.
"""

from __future__ import annotations

import gc
import hashlib
import math
import os
import random
import shutil
from dataclasses import dataclass, field
from time import perf_counter, process_time

from repro.engine.dataspread import DataSpread
from repro.grid.range import RangeRef
from repro.grid.sheet import Sheet
from repro.query.builder import col, region, select
from repro.service.workspace import Workspace
from repro.storage import recovery
from repro.workloads.operations import OperationKind, apply_operation, generate_update_trace
from repro.workloads.synthetic import SyntheticSheetSpec, generate_synthetic_sheet

from layers import counter_delta, snapshot_counters

VIEWPORT_ROWS = 40
#: Share of viewport moves that go to the next page; the rest jump.
NEXT_PAGE_SHARE = 0.8
QUERY_LIMIT = 20


@dataclass
class Run:
    """What one workload run measured."""

    samples: dict[str, list[float]] = field(default_factory=dict)  # op kind -> CPU ms
    wall_samples: dict[str, list[float]] = field(default_factory=dict)  # op kind -> wall ms
    scalars: dict[str, float] = field(default_factory=dict)
    scalar_samples: dict[str, int] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    errors: list[str] = field(default_factory=list)
    counters: dict[str, float] = field(default_factory=dict)  # deltas over the measured phase
    final_counters: dict[str, float] = field(default_factory=dict)
    inputs_digest: str = ""
    #: Per-op observations the traced run turns into ratios.
    extra: dict[str, list[float]] = field(default_factory=dict)


class Loop:
    """Timing, failure accounting and trace op ids for one workload run.

    An operation's sample is the process CPU time it took (user + system;
    the loop runs on the process's only thread).  On a shared virtual
    machine that leaves out the time the host runs other guests on this
    one's CPU (steal), which otherwise dominates run-to-run spread; the
    ops' wall times are kept beside it for the report.
    """

    def __init__(self, tracer=None) -> None:
        self.run = Run()
        self.tracer = tracer
        self._op = 0
        #: Wall time of the timed operations, which the traced spans cover.
        self.timed_s = 0.0
        self.last_wall_ms = 0.0

    def start(self) -> tuple[float, float]:
        """Open a timed operation; spans recorded until :meth:`stop` share its id."""
        self._op += 1
        if self.tracer is not None:
            self.tracer.op_id = self._op
        return process_time(), perf_counter()

    def stop(self, started: tuple[float, float]) -> float:
        """Close the timed operation; returns its CPU time in ms."""
        cpu, wall = process_time() - started[0], perf_counter() - started[1]
        if self.tracer is not None:
            self.tracer.op_id = 0
        self.timed_s += wall
        self.last_wall_ms = wall * 1e3
        return cpu * 1e3

    def timed(self, kind: str | None, function, *args, **kwargs):
        """Run one operation; returns ``(ok, result, ms)``."""
        self.run.attempted += 1
        started = self.start()
        try:
            result = function(*args, **kwargs)
        except Exception as error:  # the loop must keep running to count every failure
            self.stop(started)
            self.fail(f"{kind or getattr(function, '__name__', 'op')}: {error!r}")
            return False, None, 0.0
        ms = self.stop(started)
        if kind is not None:
            self.sample(kind, ms, self.last_wall_ms)
        return True, result, ms

    def edit_then_read(self, edit, read_fresh):
        """Time one edit (``edit_ack``) and, from the same start, the reads
        that show its viewport fresh (``fresh``); returns ``(ok, reads)``."""
        self.run.attempted += 1
        started = self.start()
        try:
            edit()
            acked = process_time(), perf_counter()
            reads = read_fresh()
        except Exception as error:  # counted, and the loop goes on
            self.stop(started)
            self.fail(f"edit: {error!r}")
            return False, None
        fresh_ms = self.stop(started)
        self.sample("edit_ack", (acked[0] - started[0]) * 1e3, (acked[1] - started[1]) * 1e3)
        self.sample("fresh", fresh_ms, self.last_wall_ms)
        return True, reads

    def query(self, engine: DataSpread, run_query, statement, expected) -> None:
        """Time one ``select()``; ``expected()`` gives the naive reference rows."""
        cells_read = engine.model.cells_read
        ok, table, _ = self.timed("query", run_query, statement)
        if ok:
            self.note("query_cells_read", engine.model.cells_read - cells_read)
            self.note("query_rows", len(table.rows))
            self.check(list(table.rows) == expected(), f"query {statement!r} disagrees")

    def sample(self, kind: str, ms: float, wall_ms: float) -> None:
        self.run.samples.setdefault(kind, []).append(ms)
        self.run.wall_samples.setdefault(kind, []).append(wall_ms)

    def note(self, name: str, value: float) -> None:
        self.run.extra.setdefault(name, []).append(value)

    def fail(self, message: str) -> None:
        """Count a failure of an operation already counted as attempted."""
        self.run.failed += 1
        if len(self.run.errors) < 20:
            self.run.errors.append(message)

    def check(self, ok: bool, message: str) -> bool:
        """Count an oracle rejection; returns ``ok``."""
        if not ok:
            self.fail(message)
        return ok


def _digest(*parts) -> str:
    return hashlib.sha256(repr(parts).encode()).hexdigest()[:16]


def _median(values: list[float]) -> float:
    ordered = sorted(values)
    middle = len(ordered) // 2
    return ordered[middle] if len(ordered) % 2 else (ordered[middle - 1] + ordered[middle]) / 2


def _column_letters(index: int) -> str:
    letters = ""
    while index:
        index, remainder = divmod(index - 1, 26)
        letters = chr(65 + remainder) + letters
    return letters


def _same(actual, expected) -> bool:
    """Equal values; floats within the drift of running-sum maintenance."""
    if isinstance(actual, float) or isinstance(expected, float):
        if isinstance(actual, (int, float)) and isinstance(expected, (int, float)):
            return math.isclose(actual, expected, rel_tol=1e-9, abs_tol=1e-6)
    return actual == expected


def _expected_query(rows: list[tuple], where: int, threshold, order: int | None) -> list[tuple]:
    """Naive filter / stable sort / limit, the reference for ``select()``."""
    matches = [row for row in rows
               if isinstance(row[where], (int, float)) and row[where] > threshold]
    if order is not None:
        matches.sort(key=lambda row: (row[order] is not None, row[order]), reverse=True)
    return matches[:QUERY_LIMIT]


def _statement(source, where: str, threshold, order: str | None):
    """``where(...).limit(k)``, ordered by ``order`` descending when given."""
    statement = select(source).where(col(where) > threshold)
    if order is not None:
        statement = statement.order_by(col(order).desc())
    return statement.limit(QUERY_LIMIT)


def _execute(engine: DataSpread):
    return lambda statement: engine.execute(statement).to_table()


def _next_viewport(rng: random.Random, top: int, last_top: int) -> int:
    if rng.random() < NEXT_PAGE_SHARE:
        top += VIEWPORT_ROWS
        return top if top <= last_top else 1
    return rng.randint(1, last_top)


def _finish(loop: Loop, engine: DataSpread, before: dict[str, float]) -> Run:
    loop.run.final_counters = snapshot_counters(engine)
    loop.run.counters = counter_delta(before, loop.run.final_counters)
    loop.run.scalars["storage_bytes_per_cell"] = engine.storage_cost() / engine.cell_count()
    loop.run.scalar_samples["storage_bytes_per_cell"] = 1
    # Hybrid regions, the RCV catch-all counted as one.
    loop.run.scalars["regions"] = len(engine.model.regions) + (engine.model.catch_all is not None)
    return loop.run


# ---------------------------------------------------------------------- #
# sheet-navigate
# ---------------------------------------------------------------------- #
NAV_ROWS = 600
NAV_COLUMNS = 40
NAV_FORMULAS = 200
NAV_SETUPS = 3
NAV_STEPS_PER_SECOND = 40
#: The trace's line inserts (0.2 expected) are made at least this share of
#: the steps, so a 15-second run always has the 100 a p90 needs.
NAV_MIN_STRUCTURAL_SHARE = 0.18
NAV_QUERY_EVERY = 4
#: The synthetic document is the same for every --seed; the seed draws the
#: session on it (the update trace, viewport moves and queries).  Table
#: sizes and placements decide the relayout's cost and each edit's cost in
#: the COM region, so a seeded document made the seeds disagree by ~15%.
NAV_DOCUMENT_SEED = 11


def sheet_navigate(seed: int, seconds: int, work_dir: str, tracer=None) -> Run:
    """Scroll a COM-laid-out synthetic sheet and edit it with the paper's op mix."""
    spec = SyntheticSheetSpec(total_rows=NAV_ROWS, total_columns=NAV_COLUMNS,
                              formula_count=NAV_FORMULAS, seed=NAV_DOCUMENT_SEED)
    generated = generate_synthetic_sheet(spec)
    steps = max(seconds * NAV_STEPS_PER_SECOND, 1)
    # Run on past the nominal step count, when a seed draws few line
    # inserts, until the structural p90 has its samples.
    trace = generate_update_trace(generated.sheet, 2 * steps, seed=seed + 1)
    structural = 0
    for index, operation in enumerate(trace):
        structural += operation.kind in (OperationKind.ADD_ROW, OperationKind.ADD_COLUMN)
        if index + 1 >= steps and structural >= NAV_MIN_STRUCTURAL_SHARE * steps:
            break
    trace = trace[:index + 1]
    steps = len(trace)
    rng = random.Random(seed * 31 + 7)
    width = NAV_COLUMNS + 5  # the data columns plus the formula columns
    corner = (NAV_ROWS, NAV_COLUMNS)
    tables = [[t.top, t.left, t.bottom, t.right] for t in generated.tables
              if not (t.top <= corner[0] <= t.bottom and t.left <= corner[1] <= t.right)]
    plan = []  # per step: (viewport top, query or None)
    top = 1
    for step in range(steps):
        query = None
        if step % NAV_QUERY_EVERY == NAV_QUERY_EVERY - 1:
            table = rng.randrange(len(tables))
            where = rng.randrange(tables[table][3] - tables[table][1] + 1)
            order = rng.randrange(tables[table][3] - tables[table][1] + 1)
            # Tables hold uniform values in [0, 10000]; a threshold in the
            # lower half keeps a filter query's early stop short and steady.
            query = (table, where, round(rng.uniform(2_000, 6_000), 2),
                     order if (step // NAV_QUERY_EVERY) % 3 == 2 else None)
        plan.append((top, query))
        top = _next_viewport(rng, top, NAV_ROWS - VIEWPORT_ROWS + 1)
    oracle = generated.sheet.copy()
    loop = Loop(tracer)
    loop.run.inputs_digest = _digest(sorted(
        (a.row, a.column, c.value, c.formula) for a, c in generated.sheet.items()), trace, plan)

    setups, loads = [], []
    cells = generated.sheet.cell_count()
    for _ in range(NAV_SETUPS):
        gc.collect()
        started = loop.start()
        engine = DataSpread.from_sheet(generated.sheet)
        loaded = process_time()
        layout = engine.optimize_storage("aggressive")
        setups.append(loop.stop(started) / 1e3)
        loads.append(loaded - started[0])
    loop.run.scalars["setup_s"] = _median(setups)
    loop.run.scalars["ingest_cells_per_s"] = cells / _median(loads)
    loop.run.scalar_samples.update(setup_s=NAV_SETUPS, ingest_cells_per_s=NAV_SETUPS)
    loop.run.scalars["decomposition_regions"] = len(layout.as_plan())
    before = snapshot_counters(engine)
    gc.collect()

    def check_viewport(grid, first_row: int) -> bool:
        for offset, values in enumerate(grid):
            for column, value in enumerate(values, start=1):
                cell = oracle.get_cell(first_row + offset, column)
                if not cell.has_formula and not _same(value, cell.value):
                    return False
        return True

    for (first_row, query), operation in zip(plan, trace):
        viewport = RangeRef(first_row, 1, first_row + VIEWPORT_ROWS - 1, width)
        ok, grid, _ = loop.timed("read", engine.get_range_values, viewport)
        if ok:
            loop.note("cells_returned", viewport.area)
            loop.check(check_viewport(grid, first_row), f"read {viewport.to_a1()} disagrees")
        kind = operation.kind
        if kind in (OperationKind.CHANGE_CELL, OperationKind.ADD_CELL):
            ok, grid = loop.edit_then_read(
                lambda: engine.set_value(operation.row, operation.column, operation.value),
                lambda: engine.get_range_values(viewport))
            apply_operation(oracle, operation)
            if ok:
                loop.note("cells_returned", viewport.area)
                loop.check(check_viewport(grid, first_row), "fresh read disagrees")
        else:
            if kind is OperationKind.ADD_ROW:
                loop.timed("structural", engine.insert_row_after, operation.row)
                line, lo, hi = operation.row, 0, 2
            else:
                loop.timed("structural", engine.insert_column_after, operation.column)
                line, lo, hi = operation.column, 1, 3
            apply_operation(oracle, operation)
            for table in tables:
                if line < table[lo]:
                    table[lo] += 1
                    table[hi] += 1
                elif line < table[hi]:
                    table[hi] += 1
        if query is not None:
            table_index, where, threshold, order = query
            t_top, t_left, t_bottom, t_right = tables[table_index]
            area = RangeRef(t_top, t_left, t_bottom, t_right)
            statement = _statement(
                region(area, header=False), _column_letters(t_left + where), threshold,
                None if order is None else _column_letters(t_left + order))
            loop.query(engine, _execute(engine), statement, lambda: _expected_query(
                [tuple(row) for row in oracle.get_values(area)], where, threshold, order))

    run = _finish(loop, engine, before)
    _check_final_sheet(loop, engine, oracle)
    run.scalars["timed_s"] = loop.timed_s
    return run


def _check_final_sheet(loop: Loop, engine: DataSpread, oracle: Sheet) -> None:
    """Constants and formula texts against the replayed sheet; formula values
    against a fresh engine built from those final cells."""
    stored = engine.get_cells(engine.used_range())
    expected = {address: cell for address, cell in oracle.items() if not cell.is_empty}
    loop.check(set(stored) == set(expected), "final cell set disagrees with the replay")
    reference = DataSpread.from_sheet(oracle)
    for address, cell in expected.items():
        got = stored.get(address)
        if got is None:
            continue
        if cell.has_formula:
            ok = (got.formula or "").lstrip("=") == (cell.formula or "").lstrip("=") and _same(
                got.value, reference.get_value(address.row, address.column))
        else:
            ok = _same(got.value, cell.value)
        if not loop.check(ok, f"final {address.to_a1()}: {got!r} vs {cell!r}"):
            return


# ---------------------------------------------------------------------- #
# formula-fanout
# ---------------------------------------------------------------------- #
FAN_ROWS = 2_000          # column A
FAN_HOT = 5_000           # C: SUM(A1:A10)+A{k}
FAN_SPAN = 50             # D: SUM over one of the 50-row blocks of A11:A{FAN_ROWS}
FAN_SECOND = 2_000        # E: C + D
#: Edits come in windows of three: one hot-range edit, then two cold edits
#: whose dependents partly coalesce into the cells it left stale; a
#: count-based full flush ends each window and the reader's viewport moves
#: only after it.  The fixed order keeps every seed's latency mix the same:
#: a third of acks and fresh reads follow a hot edit (the p90), two thirds
#: a cold one behind it (the median).
FAN_WINDOW = 3
FAN_WINDOWS_PER_SECOND = 2.5
#: Two filter queries and one ordered query after each flush, so the
#: median falls among the former and the p90 among the latter.
FAN_QUERIES_PER_FLUSH = 3
FAN_SETUPS = 3


def _fanout_layout(seed: int):
    rng = random.Random(seed)
    column_a = [rng.randint(0, 999) for _ in range(FAN_ROWS)]
    privates = [rng.randint(11, FAN_ROWS) for _ in range(FAN_HOT)]
    blocks = (FAN_ROWS - 10) // FAN_SPAN
    spans = [11 + FAN_SPAN * rng.randrange(blocks) for _ in range(FAN_SECOND)]
    return rng, column_a, privates, spans


def _fanout_load(session, column_a, privates, spans) -> int:
    with session.batch():
        for row, value in enumerate(column_a, start=1):
            session.set_value(row, 1, value)
        for row, private in enumerate(privates, start=1):
            session.set_formula(row, 3, f"SUM(A1:A10)+A{private}")
        for row, start in enumerate(spans, start=1):
            session.set_formula(row, 4, f"SUM(A{start}:A{start + FAN_SPAN - 1})")
            session.set_formula(row, 5, f"C{row}+D{row}")
    return len(column_a) + len(privates) + 2 * len(spans)


def _fanout_expected(column_a, privates, spans, row: int, column: int):
    hot = sum(column_a[:10])
    if column == 1:
        return column_a[row - 1]
    if column == 3:
        return hot + column_a[privates[row - 1] - 1]
    start = spans[row - 1]
    span = sum(column_a[start - 1:start - 1 + FAN_SPAN])
    if column == 4:
        return span
    return hot + column_a[privates[row - 1] - 1] + span


def formula_fanout(seed: int, seconds: int, work_dir: str, tracer=None) -> Run:
    """One writer and one reader session over a shared async workspace."""
    rng, column_a, privates, spans = _fanout_layout(seed)
    windows = max(int(seconds * FAN_WINDOWS_PER_SECOND), 1)
    edits, viewports, thresholds = [], [], []
    top, last_top = 1, FAN_SECOND - VIEWPORT_ROWS + 1
    for _ in range(windows):
        for position in range(FAN_WINDOW):
            row = rng.randint(1, 10) if position == 0 else rng.randint(11, FAN_ROWS)
            edits.append((row, rng.randint(0, 999)))
        viewports.append(top)
        top = _next_viewport(rng, top, last_top)
        # The filter is on column A, whose values stay uniform, so a filter
        # query's early stop (and its cost) does not drift with the edits.
        thresholds.append([rng.randint(300, 700) for _ in range(FAN_QUERIES_PER_FLUSH)])
    loop = Loop(tracer)
    loop.run.inputs_digest = _digest(column_a, privates, spans, edits, viewports, thresholds)

    setups, loads = [], []
    for _ in range(FAN_SETUPS):
        gc.collect()
        started = loop.start()
        workspace = Workspace()
        writer = workspace.open_session("writer")
        reader = workspace.open_session("reader")
        cells = _fanout_load(writer, column_a, privates, spans)
        loaded = process_time()
        workspace.flush()
        setups.append(loop.stop(started) / 1e3)
        loads.append(loaded - started[0])
    loop.run.scalars["setup_s"] = _median(setups)
    loop.run.scalars["ingest_cells_per_s"] = cells / _median(loads)
    loop.run.scalar_samples.update(setup_s=FAN_SETUPS, ingest_cells_per_s=FAN_SETUPS)
    engine = workspace.engine
    scheduler = engine.compute_scheduler
    before = snapshot_counters(engine)
    expect = lambda row, column: _fanout_expected(column_a, privates, spans, row, column)
    gc.collect()

    for window, first_row in enumerate(viewports):
        viewport = RangeRef(first_row, 3, first_row + VIEWPORT_ROWS - 1, 5)
        reader.set_viewport(viewport)
        cells = [(r, c) for r in range(first_row, first_row + VIEWPORT_ROWS) for c in (3, 4, 5)]
        for row, value in edits[window * FAN_WINDOW:(window + 1) * FAN_WINDOW]:
            ok, reads = loop.edit_then_read(
                lambda: writer.set_value(row, 1, value),
                lambda: [reader.value(r, c) for r, c in cells])
            if not ok:
                continue
            column_a[row - 1] = value
            if tracer is not None:
                loop.note("queue_depth", scheduler.pending_count)
            loop.check(all(read.fresh and _same(read.value, expect(r, c))
                           for read, (r, c) in zip(reads, cells)),
                       f"fresh read of viewport at row {first_row} disagrees")
            ok, grid, _ = loop.timed("read", reader.get_range_values, viewport)
            if ok:
                loop.note("cells_returned", viewport.area)
                loop.check(all(_same(v, expect(first_row + i, 3 + j))
                               for i, values in enumerate(grid) for j, v in enumerate(values)),
                           f"read {viewport.to_a1()} disagrees")
        workspace.flush()
        rows = [(expect(r, 1), None, expect(r, 3), expect(r, 4), expect(r, 5))
                for r in range(1, FAN_SECOND + 1)]
        for query_index, threshold in enumerate(thresholds[window]):
            ordered = query_index == FAN_QUERIES_PER_FLUSH - 1
            statement = _statement(region(f"A1:E{FAN_SECOND}", header=False), "A", threshold,
                                   "E" if ordered else None)
            loop.query(engine, reader.query, statement, lambda: _expected_query(
                rows, 0, threshold, 4 if ordered else None))

    run = _finish(loop, engine, before)
    # A synchronous replay of the same committed edits, in commit order.
    replay = DataSpread()
    _fanout_load(replay, _fanout_layout(seed)[1], privates, spans)
    replay.set_values((r, 1, v) for r, v in edits)
    whole = f"A1:E{FAN_HOT}"
    loop.check(engine.get_range_values(whole) == replay.get_range_values(whole),
               "final grid disagrees with the synchronous replay")
    loop.check(all(_same(engine.get_value(r, 5), expect(r, 5)) for r in range(1, FAN_SECOND + 1)),
               "final second-level formulas disagree")
    workspace.close()
    run.scalars["timed_s"] = loop.timed_s
    return run


# ---------------------------------------------------------------------- #
# durable-ingest
# ---------------------------------------------------------------------- #
ING_ROWS = 15_000
ING_COLUMNS = 10
ING_BLOCK = 1_000
ING_SETUPS = 25
ING_BLOCKS_PER_SECOND = 3
ING_TAIL = 50
ING_RECOVERIES = 3
#: Steady-phase mix per block of 20 ops (shuffled within the block):
#: 70% edits, 15% viewport reads, 15% queries.
ING_MIX = (("edit", 14), ("read", 3), ("query", 3))


def durable_ingest(seed: int, seconds: int, work_dir: str, tracer=None) -> Run:
    """WAL-backed ingest, a mixed steady phase, a checkpoint and crash recovery."""
    rng = random.Random(seed)
    header = [f"c{j}" for j in range(ING_COLUMNS)]
    table = [[i] + [rng.randint(0, 999) for _ in range(ING_COLUMNS - 1)]
             for i in range(ING_ROWS)]
    blocks = max(seconds * ING_BLOCKS_PER_SECOND, 1)
    kinds = []
    for _ in range(blocks):
        block = [kind for kind, count in ING_MIX for _ in range(count)]
        rng.shuffle(block)
        kinds.extend(block)
    steady = len(kinds)
    ops, queries = [], 0
    for kind in kinds + ["edit"] * ING_TAIL:
        if kind == "edit":
            ops.append(("edit", rng.randint(2, ING_ROWS + 1), rng.randint(2, ING_COLUMNS),
                        rng.randint(0, 999)))
        elif kind == "read":
            ops.append(("read", rng.randint(2, ING_ROWS + 2 - VIEWPORT_ROWS)))
        else:
            queries += 1  # every third query orders its matches
            ops.append(("query", rng.randint(0, 999), queries % 3 == 0))
    checkpoint_at = int(steady * 0.8)
    loop = Loop(tracer)
    loop.run.inputs_digest = _digest(table, ops)
    last_column = _column_letters(ING_COLUMNS)

    os.makedirs(work_dir, exist_ok=True)
    setups = []
    for attempt in range(ING_SETUPS):
        directory = os.path.join(work_dir, f"workspace-{attempt}")
        gc.collect()
        started = loop.start()
        engine = DataSpread(durability="wal", storage_dir=directory)
        setups.append(loop.stop(started) / 1e3)
        if attempt < ING_SETUPS - 1:
            engine.close()
            shutil.rmtree(directory)
    loop.run.scalars["setup_s"] = _median(setups)
    loop.run.scalar_samples["setup_s"] = ING_SETUPS
    before = snapshot_counters(engine)
    gc.collect()

    ingest_s = 0.0
    _, _, ms = loop.timed(None, engine.import_rows, [header])
    ingest_s += ms / 1e3
    for block in range(0, ING_ROWS, ING_BLOCK):
        _, _, ms = loop.timed(None, engine.import_rows, table[block:block + ING_BLOCK],
                              top=2 + block)
        ingest_s += ms / 1e3
    ingested = (ING_ROWS + 1) * ING_COLUMNS
    loop.run.scalars["ingest_cells_per_s"] = ingested / ingest_s if ingest_s else 0.0
    loop.run.scalar_samples["ingest_cells_per_s"] = ING_ROWS // ING_BLOCK + 1
    wal_after_ingest = snapshot_counters(engine)
    loop.run.extra["wal_bytes_per_cell"] = [
        (wal_after_ingest["wal.log_bytes"] - before["wal.log_bytes"]) / ingested]

    def check_rows(grid, first_row: int) -> bool:
        return all(list(values) == table[first_row - 2 + i] for i, values in enumerate(grid))

    whole = f"A1:{last_column}{ING_ROWS + 1}"
    for index, op in enumerate(ops):
        if index == checkpoint_at:
            ok, written, _ = loop.timed(None, engine.checkpoint)
            if ok:
                loop.run.extra["snapshot_bytes"] = [written["snapshot_bytes"]]
        if op[0] == "edit":
            _, row, column, value = op
            first = max(2, min(row - VIEWPORT_ROWS // 2, ING_ROWS + 2 - VIEWPORT_ROWS))
            viewport = f"A{first}:{last_column}{first + VIEWPORT_ROWS - 1}"
            ok, grid = loop.edit_then_read(lambda: engine.set_value(row, column, value),
                                           lambda: engine.get_range_values(viewport))
            if not ok:
                continue
            table[row - 2][column - 1] = value
            loop.note("cells_returned", VIEWPORT_ROWS * ING_COLUMNS)
            loop.check(check_rows(grid, first), f"fresh read at row {row} disagrees")
        elif op[0] == "read":
            first = op[1]
            viewport = f"A{first}:{last_column}{first + VIEWPORT_ROWS - 1}"
            ok, grid, _ = loop.timed("read", engine.get_range_values, viewport)
            if ok:
                loop.note("cells_returned", VIEWPORT_ROWS * ING_COLUMNS)
                loop.check(check_rows(grid, first), f"read {viewport} disagrees")
        else:
            _, threshold, ordered = op
            statement = _statement(whole, "c3", threshold, "c5" if ordered else None)
            loop.query(engine, _execute(engine), statement, lambda: _expected_query(
                [tuple(r) for r in table], 3, threshold, 5 if ordered else None))

    # The crash shape: the directory as it stands after the last
    # acknowledged edit, copied before close().
    crash = os.path.join(work_dir, "crash")
    shutil.copytree(engine.storage_backend.directory, crash)
    run = _finish(loop, engine, before)
    engine.close()
    recoveries = []
    for attempt in range(ING_RECOVERIES):
        directory = os.path.join(work_dir, f"recovered-{attempt}")
        shutil.copytree(crash, directory)
        gc.collect()
        # Through the module attribute, which a traced run wraps.
        ok, recovered, ms = loop.timed(None, recovery.recover, directory)
        if not ok:
            continue
        recoveries.append(ms / 1e3)
        if attempt == 0:
            grid = recovered.get_range_values(whole)
            loop.check(grid[0] == header and check_rows(grid[1:], 2),
                       "recovered grid is missing acknowledged edits")
        recovered.close()
    if recoveries:
        run.scalars["recovery_s"] = _median(recoveries)
        run.scalar_samples["recovery_s"] = len(recoveries)
    run.scalars["timed_s"] = loop.timed_s
    return run


WORKLOADS = {
    "sheet-navigate": sheet_navigate,
    "formula-fanout": formula_fanout,
    "durable-ingest": durable_ingest,
}

#: The layers each workload exists to load; their self time should be most
#: of its timed operations' wall time.  On durable-ingest the RCV catch-all
#: is the models layer with its positional mappings.
LOADED_LAYERS = {
    "sheet-navigate": ("positional", "models", "storage.heap", "decomposition"),
    "formula-fanout": ("service", "compute", "formula.dependencies", "formula.evaluator",
                       "formula.aggregates", "engine.cache"),
    "durable-ingest": ("storage.wal", "storage.snapshot", "storage.recovery", "query",
                       "models", "positional"),
}
