package hetsim

// Observer receives every kernel launch and link transfer as it is
// placed on the simulated timeline. It is the simulator's metrics
// hook: unlike a Trace, which retains the whole timeline in memory,
// an observer sees each span once and keeps whatever aggregate it
// wants (internal/obs feeds a metrics registry this way). Attach one
// with Platform.Observe before issuing work.
//
// Observers run synchronously inside Launch/Transfer in issue order,
// so a deterministic schedule produces a deterministic observation
// sequence.
type Observer interface {
	// KernelLaunched reports one device kernel with its final
	// placement: resource, stream, slot occupancy, and start/end times.
	// sp.Name is set only when a trace is attached too.
	KernelLaunched(sp Span)
	// TransferDone reports one link transfer; sp.Resource is "h2d" or
	// "d2h" and sp.Bytes the transfer size.
	TransferDone(sp Span, dir Direction)
}

// Observe attaches an observer to both devices and the link. Passing
// nil detaches. Observation and tracing are independent: either, both,
// or neither may be active.
func (p *Platform) Observe(o Observer) {
	p.GPU.obs = o
	p.CPU.obs = o
	p.Link.obs = o
}

// Contention reports how many kernel launches found their required
// slots still busy and had to queue behind earlier kernels, and the
// summed queueing delay — the realized pressure on the
// concurrent-kernel pool that Optimization 1 fans out over.
func (d *Device) Contention() (waits int, delay float64) {
	return d.slotWaits, d.slotWait
}
