package trace

import (
	"rccsim/internal/obs"
	"rccsim/internal/obs/span"
)

// Observers is the set of observers a run attaches: the event bus, the
// per-line contention sketch and the causal-span recorder. Any member may
// be nil, and the zero value observes nothing at the cost of one nil
// branch per call site. Every component that observes (SM, cache
// controller, interconnect, DRAM channel) embeds it, so its call sites read
// c.Tr, c.Heat and c.Sp, and takes the whole set through the promoted
// SetObservers. Like stats.Run, each observer is owned by one
// single-threaded machine: never share one between concurrently running
// machines.
type Observers struct {
	Tr   *Bus
	Heat *obs.Heat
	Sp   *span.Recorder
}

// SetObservers replaces the set (the zero value detaches everything).
func (o *Observers) SetObservers(v Observers) { *o = v }
