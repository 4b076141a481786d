// Package layers holds microbenchmarks of the simulator's building
// blocks, each driven through public calls only:
//
//	cd bench && go test -run '^$' -bench . -benchmem ./layers
//
// They report host ns/op and allocs/op per layer operation, to locate a
// change that moves rccperf's per-layer metrics.
package layers
