package online

import (
	"repro/internal/obs"
)

// Instrumentation is the allocator's observability instrument set. Every
// field is recorded by the allocator under its state mutex through atomic,
// allocation-free operations, so enabling instrumentation does not perturb
// the steady-state churn hot path (asserted by TestSteadyStateChurnAllocs
// with metrics on). A nil *Instrumentation disables recording entirely;
// a non-nil one must have every field populated — use NewInstrumentation.
//
// In the sharded service each cell gets its own set, labeled cell="i", so
// /metrics exposes per-cell allocate/release/epoch counters and the load
// signal a rebalancer would consume.
type Instrumentation struct {
	Epochs   *obs.Counter   // epochs committed (Allocate calls that ran)
	EpochRun *obs.Histogram // inner-protocol run duration per epoch
	Admitted *obs.Counter   // fresh balls admitted
	Placed   *obs.Counter   // ball placements committed (cumulative)
	Released *obs.Counter   // balls departed via Release
	Live     *obs.Gauge     // arrived - departed
	Pending  *obs.Gauge     // live but unplaced balls
	MaxLoad  *obs.Gauge     // current maximum bin load
	MinLoad  *obs.Gauge     // current minimum bin load
	// TableBytes is the ID table's running byte count (Footprint's table
	// share): resident pages in either form, the spare caches and the
	// directory.
	TableBytes *obs.Gauge
}

// NewInstrumentation registers a full allocator instrument set on r. The
// labels (typically obs.L("cell", "3")) distinguish multiple allocators
// sharing one registry.
func NewInstrumentation(r *obs.Registry, labels ...obs.Label) *Instrumentation {
	return &Instrumentation{
		Epochs:   r.Counter("pba_cell_epochs_total", "Epochs run by the cell's allocator.", labels...),
		EpochRun: r.DurationHistogram("pba_cell_epoch_run_seconds", "Inner-protocol run duration per epoch.", labels...),
		Admitted: r.Counter("pba_cell_admitted_total", "Fresh balls admitted to the cell.", labels...),
		Placed:   r.Counter("pba_cell_placed_total", "Ball placements committed by the cell.", labels...),
		Released: r.Counter("pba_cell_released_total", "Balls departed from the cell.", labels...),
		Live:     r.Gauge("pba_cell_live", "Live balls in the cell (arrived - departed).", labels...),
		Pending:  r.Gauge("pba_cell_pending", "Live but unplaced balls in the cell.", labels...),
		MaxLoad:  r.Gauge("pba_cell_max_load", "Current maximum bin load in the cell.", labels...),
		MinLoad:  r.Gauge("pba_cell_min_load", "Current minimum bin load in the cell.", labels...),
		TableBytes: r.Gauge("pba_cell_table_bytes",
			"Bytes held by the cell's ID table: resident pages in either form, spare pages and the directory.", labels...),
	}
}

// syncGauges refreshes the instantaneous gauges from the allocator's
// incremental state — all O(1) reads. Called with a.mu held.
func (a *Allocator) syncGauges() {
	ins := a.cfg.Ins
	ins.Live.Set(a.arrived - a.departed)
	ins.Pending.Set(int64(len(a.pending)))
	ins.MaxLoad.Set(a.hist.max)
	ins.MinLoad.Set(a.hist.min)
	ins.TableBytes.Set(a.table.footprint())
}
