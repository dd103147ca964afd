package serve

import (
	"strconv"
	"sync"

	"repro/internal/obs"
	"repro/internal/online"
)

// StageNames lists the serving-pipeline stages instrumented under the
// pba_stage_duration_seconds histogram family, in pipeline order.
// pba-bench's server stage table and the CI stage summary iterate this
// list; keep it in sync with the instrumentation points below.
//
//	decode      reading and decoding one HTTP request body, JSON or binary
//	            (handleAllocate/handleRelease)
//	route       admission sequencing, the multinomial split draw, and the
//	            fan-out of sub-requests onto the cell queues (Allocate)
//	batch_wait  time a sub-request sat in a cell queue before its batcher
//	            drained it into an epoch (cellLoop)
//	epoch_run   the cell allocator's epoch over the coalesced batch,
//	            including placement validation (cellLoop)
//	commit      assembling the caller's report from cell replies: span
//	            arithmetic and placement translation, excluding the time
//	            blocked waiting on cells (Allocate)
//	encode      encoding one HTTP response (JSON or binary) into the pooled
//	            buffer (writeJSON/writeWire)
//	allocate    one whole Service.Allocate call, end to end
//	release     one whole Service.Release call
var StageNames = []string{"decode", "route", "batch_wait", "epoch_run", "commit", "encode", "allocate", "release"}

// StageMetricName is the histogram family every stage records under.
const StageMetricName = "pba_stage_duration_seconds"

// metrics is the service's instrument set. All fields are registered at
// construction; recording is allocation-free (see internal/obs).
type metrics struct {
	reg *obs.Registry

	// http is the HTTP layer's set: path counters and the decode and
	// encode stages.
	http *handlerMetrics

	stageRoute     *obs.Histogram
	stageBatchWait *obs.Histogram
	stageEpochRun  *obs.Histogram
	stageCommit    *obs.Histogram
	stageAllocate  *obs.Histogram
	stageRelease   *obs.Histogram

	requests     *obs.Counter // allocate requests admitted by the sequencer
	released     *obs.Counter // balls released through Service.Release
	inlineEpochs *obs.Counter // epochs run on the single-shard inline fast path
	attaches     *obs.Counter // cells attached (fresh or restored from migration)
	detaches     *obs.Counter // cells detached (migrated away)

	migrations     *obs.Counter   // cell migrations this replica took part in
	migrationPause *obs.Histogram // per-cell write pause, delta cut -> handoff
	snapshotBytes  *obs.Counter   // snapshot + delta bytes shipped over /cells

	// insMu guards cellIns, the per-global-cell Instrumentation cache: a
	// cell that detaches and later re-attaches (migration round trip) must
	// reuse its instrument set — the registry panics on duplicate series.
	insMu   sync.Mutex
	cellIns map[int]*online.Instrumentation
}

func newMetrics() *metrics {
	reg := obs.NewRegistry()
	m := &metrics{
		reg:            reg,
		http:           newHandlerMetrics(reg),
		stageRoute:     stage(reg, "route"),
		stageBatchWait: stage(reg, "batch_wait"),
		stageEpochRun:  stage(reg, "epoch_run"),
		stageCommit:    stage(reg, "commit"),
		stageAllocate:  stage(reg, "allocate"),
		stageRelease:   stage(reg, "release"),
		requests:       reg.Counter("pba_allocate_requests_total", "Allocate requests admitted by the router."),
		released:       reg.Counter("pba_released_balls_total", "Balls released through the service."),
		inlineEpochs:   reg.Counter("pba_inline_epochs_total", "Epochs run inline on the single-shard fast path, bypassing the batcher."),
		attaches:       reg.Counter("pba_cell_attaches_total", "Cells attached to this replica (fresh or restored)."),
		detaches:       reg.Counter("pba_cell_detaches_total", "Cells detached from this replica."),
		migrations:     reg.Counter("pba_migrations_total", "Cell migrations this replica took part in (shipped out or restored in)."),
		migrationPause: reg.DurationHistogram("pba_migration_pause_seconds", "Per-cell write pause during a two-phase migration: delta-log cut to cell handoff."),
		snapshotBytes:  reg.Counter("pba_snapshot_bytes_total", "Cell snapshot and delta bytes shipped through the /cells endpoints."),
		cellIns:        map[int]*online.Instrumentation{},
	}
	obs.RegisterRuntime(reg)
	return m
}

// stage registers one serving-pipeline stage's histogram on reg.
func stage(reg *obs.Registry, name string) *obs.Histogram {
	return reg.DurationHistogram(StageMetricName,
		"Serving-pipeline stage durations; see serve.StageNames.", obs.L("stage", name))
}

// cellInstrumentation returns cell i's allocator instrument set, labeled
// cell="i", registering it on the service registry on first use and
// reusing it on re-attach (counters then continue across a migration
// round trip, which is what a cumulative series should do).
func (m *metrics) cellInstrumentation(i int) *online.Instrumentation {
	m.insMu.Lock()
	defer m.insMu.Unlock()
	if ins, ok := m.cellIns[i]; ok {
		return ins
	}
	ins := online.NewInstrumentation(m.reg, obs.L("cell", strconv.Itoa(i)))
	m.cellIns[i] = ins
	return ins
}

// Metrics returns the service's observability registry — the full
// instrument set behind GET /metrics: stage histograms, per-cell
// allocator counters and gauges, HTTP counters, and the Go runtime
// gauges. Callers may register additional instruments on it before
// serving.
func (s *Service) Metrics() *obs.Registry { return s.metrics.reg }
