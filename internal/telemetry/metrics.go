package telemetry

import "concordia/internal/sim"

// Counter is a monotonically increasing metric.
type Counter struct{ v uint64 }

// Inc adds one.
func (c *Counter) Inc() {
	if c != nil {
		c.v++
	}
}

// Value returns the current count.
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.v
}

// Gauge is a point-in-time value.
type Gauge struct{ v float64 }

// Set replaces the value.
func (g *Gauge) Set(v float64) {
	if g != nil {
		g.v = v
	}
}

// Registry owns named counters and gauges and the sampled time series, its
// one export. Registration is idempotent (Counter("x") twice returns the
// same counter) and the CSV export is in sorted name order, so output is
// byte-identical across runs regardless of registration order.
//
// A nil *Registry is valid: lookups return nil metrics whose methods are
// no-ops, and Sample does nothing.
//
// The sampled time series is a bounded ring of the most recent
// sampleCap rows: long fleet runs with -metrics keep the newest history
// instead of growing without bound, and evictions are counted.
type Registry struct {
	counters map[string]*Counter
	gauges   map[string]*Gauge
	// cols lists every registered metric in registration order; a row
	// holds one value per metric registered when it was sampled.
	cols []column

	sampleCap   int
	rows        []sampleRow
	rowNext     int // next overwrite position once the ring is full
	rowFull     bool
	rowsEvicted uint64
}

// column is one registered metric: a counter, or a gauge when g is set.
type column struct {
	name string
	c    *Counter
	g    *Gauge
}

func (c column) value() float64 {
	if c.g != nil {
		return c.g.v
	}
	return float64(c.c.v)
}

// sampleRow is one time-series row: vals[i] is the value of cols[i], for
// the metrics registered by the time it was sampled.
type sampleRow struct {
	at   sim.Time
	vals []float64
}

// DefaultSampleCapacity bounds the sampled time series when no explicit
// capacity is configured: at the pool's one-sample-per-slot cadence this
// retains over a minute of 5G numerology-1 history.
const DefaultSampleCapacity = 1 << 17

// NewRegistry returns an empty registry with the default sample capacity.
func NewRegistry() *Registry {
	return NewRegistryCapacity(0)
}

// NewRegistryCapacity returns an empty registry retaining the last
// capacity sample rows (<=0 selects DefaultSampleCapacity).
func NewRegistryCapacity(capacity int) *Registry {
	if capacity <= 0 {
		capacity = DefaultSampleCapacity
	}
	return &Registry{
		counters:  map[string]*Counter{},
		gauges:    map[string]*Gauge{},
		sampleCap: capacity,
	}
}

// Counter returns the named counter, creating it on first use.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
		r.cols = append(r.cols, column{name: name, c: c})
	}
	return c
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
		r.cols = append(r.cols, column{name: name, g: g})
	}
	return g
}

// Sample appends one time-series row holding the current value of every
// registered counter and gauge, stamped with virtual time at. Once the
// ring is full the oldest row is overwritten (its values are reused, so
// steady-state sampling of a stable metric set does not grow the heap).
func (r *Registry) Sample(at sim.Time) {
	if r == nil {
		return
	}
	var row *sampleRow
	if len(r.rows) < r.sampleCap {
		r.rows = append(r.rows, sampleRow{})
		row = &r.rows[len(r.rows)-1]
	} else {
		row = &r.rows[r.rowNext]
		r.rowNext++
		if r.rowNext == len(r.rows) {
			r.rowNext = 0
		}
		r.rowFull = true
		r.rowsEvicted++
	}
	row.at = at
	if cap(row.vals) < len(r.cols) {
		row.vals = make([]float64, len(r.cols))
	}
	row.vals = row.vals[:len(r.cols)]
	for i, c := range r.cols {
		row.vals[i] = c.value()
	}
}

// Samples returns the number of retained time-series rows.
func (r *Registry) Samples() int {
	if r == nil {
		return 0
	}
	return len(r.rows)
}

// SamplesEvicted returns how many rows the ring has overwritten.
func (r *Registry) SamplesEvicted() uint64 {
	if r == nil {
		return 0
	}
	return r.rowsEvicted
}

// sampleOrder walks the retained rows oldest-first, calling fn for each.
func (r *Registry) sampleOrder(fn func(*sampleRow)) {
	if r == nil {
		return
	}
	if !r.rowFull {
		for i := range r.rows {
			fn(&r.rows[i])
		}
		return
	}
	for i := r.rowNext; i < len(r.rows); i++ {
		fn(&r.rows[i])
	}
	for i := 0; i < r.rowNext; i++ {
		fn(&r.rows[i])
	}
}
