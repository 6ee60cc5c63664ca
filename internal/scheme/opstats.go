package scheme

// OpStats counts the controller operations a scheme performed, the cost
// dimension the paper discusses around Figure 8 ("intensive inversion
// writes") and when motivating Aegis-rw ("removes extra inversion
// writes").  All counters are cumulative over the instance's life.
// These field comments are the one definition of the counters; the
// per-scheme series of the run's obs.Registry sum them, the run manifest
// and /metrics report those sums, and
// for the looped schemes Loop.Run is the only code that increments
// them (DESIGN.md §5a).
type OpStats struct {
	// Requests is the number of Write calls served, failed ones
	// included.
	Requests int64
	// RawWrites is the number of physical block writes issued: one per
	// verification pass, so inversion rewrites are included and
	// RawWrites − Requests is the extra write traffic the scheme
	// generated.  A request that dies before its first pass (a fail-cache
	// scheme whose plan fails over the cached faults) issues none.
	RawWrites int64
	// VerifyReads is the number of verification reads, one after every
	// physical write.
	VerifyReads int64
	// Repartitions counts configuration changes: a new slope (Aegis,
	// Aegis-rw, Aegis-rw-p), a grown partition vector (SAFER) or a
	// re-selected field set (SAFER-cache).  RDIS and ECP never
	// re-partition.
	Repartitions int64
	// Inversions is the number of physical writes issued with at least
	// one group (RDIS: one cell) stored inverted — the "inversion
	// writes" Figure 8 discusses.
	Inversions int64
	// Salvages is the number of write requests that succeeded only
	// after at least one failed verification pass, i.e. requests the
	// scheme actively recovered rather than stored cleanly first try.
	// ECP, which repairs in its single pass, counts requests whose
	// verification read routed cells to replacement bits.  Aegis-p can
	// still reject a salvaged write over its pointer budget.
	Salvages int64
}

// OpReporter is implemented by schemes that track their operation costs.
type OpReporter interface {
	OpStats() OpStats
}

// ExtraWritesPerRequest returns the scheme's write amplification beyond
// one physical write per request: (RawWrites − Requests) / Requests.
func (s OpStats) ExtraWritesPerRequest() float64 {
	if s.Requests == 0 {
		return 0
	}
	return float64(s.RawWrites-s.Requests) / float64(s.Requests)
}
