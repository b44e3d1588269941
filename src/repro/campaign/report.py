"""Campaign status and result reporting.

``status`` is operational: progress counts, failed attempts, and the
last error per failing cell — everything needed to decide whether to
resume or investigate.  ``report`` is scientific and *deterministic*:
it renders only from the spec and the journaled cell results (never
timestamps or attempt counts), so an interrupted-then-resumed campaign
prints a report byte-identical to an uninterrupted one.

The report has three views: per-cell simulation results, mean
speedup-vs-baseline per grid point (benchmark-order means, matching
the monolithic figure drivers' float summation exactly), and — for
two-axis sweeps — a threshold-sensitivity grid that reproduces the
paper's Figure 7 as a special case of a campaign.
"""

from repro.experiments.report import percent, render_table

#: Rendered in tables for cells with no (successful) result.
GAP = "—"


def format_value(value):
    """A compact, stable label for one axis value."""
    if isinstance(value, float):
        return f"{value:g}"
    return str(value)


def point_label(point):
    return ", ".join(f"{n}={format_value(v)}" for n, v in point)


def aggregate_means(spec, results):
    """Mean speedup per grid point over the spec's benchmarks.

    Returns ``(means, gaps)``: ``means`` maps each fully-covered point
    (as a tuple of (axis, value) pairs) to the arithmetic mean of its
    per-benchmark speedups, accumulated in spec benchmark order — the
    same summation order as the monolithic drivers, so a campaign
    reproduces e.g. Figure 7's numbers bit-for-bit.  ``gaps`` is the
    set of points missing at least one benchmark (quarantined or
    pending cells).
    """
    by_point = {point: [] for point in spec.points()}
    complete = {point: True for point in by_point}
    for cell in spec.cells():
        result = results.get(cell.cell_id)
        if result is None:
            complete[cell.point] = False
        else:
            by_point[cell.point].append(result["speedup"])
    means = {
        point: sum(values) / len(values)
        for point, values in by_point.items()
        if values and complete[point]
    }
    gaps = {point for point, ok in complete.items() if not ok}
    return means, gaps


def render_status(spec, state, directory=None):
    """Operational one-screen summary of a campaign's journal."""
    cells = spec.cells()
    total = len(cells)
    completed = sum(1 for c in cells if c.cell_id in state.results)
    quarantined = sum(1 for c in cells if c.cell_id in state.quarantined)
    pending = total - completed - quarantined
    lines = [
        f"campaign {spec.name!r} [spec {spec.spec_hash}] — "
        f"{completed}/{total} cells complete, "
        f"{quarantined} quarantined, {pending} pending",
        f"  sessions: {state.sessions}, journal records: {state.records}"
        + (f", corrupt lines skipped: {state.corrupt_lines}"
           if state.corrupt_lines else ""),
    ]
    if directory:
        lines.insert(1, f"  directory: {directory}")
    if state.cache:
        hits = sum(c.get("analysis_hits", 0) for c in state.cache.values())
        misses = sum(
            c.get("analysis_misses", 0) for c in state.cache.values()
        )
        lookups = hits + misses
        if lookups:
            lines.append(
                f"  analysis cache: {hits}/{lookups} hits "
                f"({100.0 * hits / lookups:.0f}%) across "
                f"{len(state.cache)} journaled cells"
            )
    failing = [c for c in cells if c.cell_id in state.failures]
    if failing:
        lines.append("  failing cells:")
        for cell in failing:
            failure = state.last_failure.get(cell.cell_id, {})
            status = ("quarantined"
                      if cell.cell_id in state.quarantined
                      else "will retry")
            lines.append(
                f"    {cell.cell_id} {cell.label()}: "
                f"{state.failures[cell.cell_id]} failed attempt(s), "
                f"{status} — last: [{failure.get('kind', '?')}] "
                f"{failure.get('error', '?')}"
            )
    return "\n".join(lines)


def render_report(spec, results, quarantined=(), ledgers=None,
                  resources=None):
    """The deterministic scientific report (see module docstring).

    ``ledgers`` (cell_id -> journaled decision-ledger summary) adds the
    ``--explain`` section; ``resources`` (cell_id -> journaled
    CPU/RSS usage) adds the ``--resources`` section.  Both are
    *annotations* — the base sections render identically without them.
    """
    cells = spec.cells()
    sections = [_render_header(spec, cells, results, quarantined)]
    sections.append(_render_cell_table(spec, cells, results, quarantined))
    if spec.axes:
        sections.append(_render_means(spec, results))
    if len(spec.axes) == 2:
        sections.append(_render_sensitivity(spec, results))
    if ledgers is not None:
        sections.append(_render_explain(spec, cells, ledgers))
    if resources is not None:
        sections.append(_render_resources(spec, cells, resources))
    return "\n\n".join(sections)


def _render_header(spec, cells, results, quarantined):
    done = sum(1 for c in cells if c.cell_id in results)
    gaps = sum(1 for c in cells if c.cell_id in quarantined)
    lines = [
        f"Campaign report: {spec.name} [spec {spec.spec_hash}]",
        f"  benchmarks: {', '.join(spec.benchmarks)}",
        f"  input sets: {', '.join(spec.input_sets)}  "
        f"scale: {format_value(spec.scale)}  "
        f"selection: {spec.selection}",
    ]
    for axis in spec.axes:
        values = ", ".join(format_value(v) for v in axis.values)
        lines.append(f"  axis {axis.name}: {values}")
    lines.append(
        f"  cells: {done}/{len(cells)} complete"
        + (f", {gaps} quarantined (rendered as gaps)" if gaps else "")
    )
    return "\n".join(lines)


def _render_cell_table(spec, cells, results, quarantined):
    headers = (["cell", "benchmark"]
               + [axis.name for axis in spec.axes]
               + ["base IPC", "DMP IPC", "speedup"])
    rows = []
    for cell in cells:
        row = [cell.cell_id, cell.benchmark]
        row += [format_value(value) for _, value in cell.point]
        result = results.get(cell.cell_id)
        if result is None:
            marker = ("quarantined" if cell.cell_id in quarantined
                      else "pending")
            row += [GAP, GAP, marker]
        else:
            row += [
                f"{result['baseline']['ipc']:.3f}",
                f"{result['stats']['ipc']:.3f}",
                percent(result["speedup"]),
            ]
        rows.append(row)
    return render_table(headers, rows, title="Per-cell results")


def _render_means(spec, results):
    means, gaps = aggregate_means(spec, results)
    rows = []
    for point in spec.points():
        label = point_label(point)
        if point in means:
            rows.append([label, percent(means[point])])
        else:
            rows.append([label, "gap"])
    table = render_table(
        ["Grid point", "Mean speedup"],
        rows,
        title=(
            f"Mean DMP speedup vs baseline "
            f"(over {len(spec.benchmarks)} benchmarks)"
        ),
    )
    if means:
        best = max(means, key=means.get)
        table += (
            f"\nBest point: {point_label(best)} "
            f"({percent(means[best])})"
        )
    return table


def _render_explain(spec, cells, ledgers):
    """Per-cell decision-ledger summaries (``report --explain``)."""
    headers = ["cell", "benchmark", "sel", "rej", "episodes",
               "avoided", "flushes", "net cycles", "misest", "recon"]
    rows = []
    misestimated_cells = 0
    for cell in cells:
        entry = ledgers.get(cell.cell_id)
        if entry is None:
            rows.append([cell.cell_id, cell.benchmark]
                        + [GAP] * (len(headers) - 2))
            continue
        misest = entry.get("misestimated", [])
        if misest:
            misestimated_cells += 1
        rows.append([
            cell.cell_id,
            cell.benchmark,
            str(entry.get("selected", 0)),
            str(entry.get("rejected", 0)),
            str(entry.get("episodes", 0)),
            str(entry.get("flushes_avoided", 0)),
            str(entry.get("flushes_taken", 0)),
            f"{entry.get('observed_net_cycles', 0.0):.1f}",
            ",".join(str(pc) for pc in misest) or "-",
            "ok" if entry.get("consistent") else "MISMATCH",
        ])
    table = render_table(
        headers, rows,
        title="Decision ledger (estimate vs observed, per cell)",
    )
    journaled = sum(1 for cell in cells if cell.cell_id in ledgers)
    table += (
        f"\n{journaled}/{len(cells)} cells journaled a ledger; "
        f"{misestimated_cells} carry mis-estimated branches "
        f"(run `python -m repro explain <benchmark>` to drill in)"
    )
    return table


def _render_resources(spec, cells, resources):
    """Per-cell CPU time and worker peak RSS (``report --resources``).

    A worker serves many cells, so a cell's max RSS is its worker's
    high-water mark up to that cell, not the cell's own footprint.
    """
    headers = ["cell", "benchmark", "user s", "sys s", "cpu s",
               "max RSS MB"]
    rows = []
    total_cpu = 0.0
    peak_rss_kb = 0
    for cell in cells:
        entry = resources.get(cell.cell_id)
        if entry is None:
            rows.append([cell.cell_id, cell.benchmark]
                        + [GAP] * (len(headers) - 2))
            continue
        user = entry.get("user_seconds", 0.0)
        system = entry.get("system_seconds", 0.0)
        rss_kb = entry.get("max_rss_kb", 0)
        total_cpu += user + system
        peak_rss_kb = max(peak_rss_kb, rss_kb)
        rows.append([
            cell.cell_id,
            cell.benchmark,
            f"{user:.2f}",
            f"{system:.2f}",
            f"{user + system:.2f}",
            f"{rss_kb / 1024.0:.1f}",
        ])
    table = render_table(
        headers, rows,
        title=("Worker resources (getrusage: CPU per successful "
               "attempt, RSS the worker's high-water mark)"),
    )
    journaled = sum(1 for cell in cells if cell.cell_id in resources)
    table += (
        f"\n{journaled}/{len(cells)} cells journaled usage; "
        f"total CPU {total_cpu:.2f}s, peak worker RSS "
        f"{peak_rss_kb / 1024.0:.1f} MB"
    )
    return table


def _render_sensitivity(spec, results):
    """Figure 7-style two-axis sensitivity grid of mean speedups."""
    means, _ = aggregate_means(spec, results)
    row_axis, col_axis = spec.axes
    headers = [f"{row_axis.name} \\ {col_axis.name}"] + [
        format_value(v) for v in col_axis.values
    ]
    rows = []
    for row_value in row_axis.values:
        row = [format_value(row_value)]
        for col_value in col_axis.values:
            point = ((row_axis.name, row_value),
                     (col_axis.name, col_value))
            row.append(percent(means[point]) if point in means else "gap")
        rows.append(row)
    return render_table(
        headers, rows,
        title=f"Sensitivity: mean speedup vs "
              f"{row_axis.name} × {col_axis.name}",
    )
