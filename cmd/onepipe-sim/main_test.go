package main

import (
	"math"
	"testing"
)

// TestFabricFlags checks the flag validation without starting a run: every
// rejected row would otherwise build the wrong fabric, never end, or run
// with an impairment other than the one asked for.
func TestFabricFlags(t *testing.T) {
	for _, c := range []struct {
		name              string
		hosts, procs      int
		dur, load, beacon float64
		jitter, loss      float64
		ok                bool
	}{
		{"defaults", 32, 1, 2, 1e6, 3, 0, 0, true},
		{"paper scale", 32, 16, 0.25, 5e6, 3, 0, 0, true},
		{"one rack", 5, 1, 2, 1e6, 3, 0, 0, true},
		{"two racks", 14, 1, 2, 1e6, 3, 0, 0, true},
		{"odd past one rack", 15, 1, 2, 1e6, 3, 0, 0, false},
		{"between 16 and 32", 20, 1, 2, 1e6, 3, 0, 0, false},
		{"past 32", 64, 1, 2, 1e6, 3, 0, 0, false},
		{"no hosts", 0, 1, 2, 1e6, 3, 0, 0, false},
		{"negative hosts", -4, 1, 2, 1e6, 3, 0, 0, false},
		{"no procs", 32, 0, 2, 1e6, 3, 0, 0, false},
		{"zero load", 32, 1, 2, 0, 3, 0, 0, false},
		{"negative load", 32, 1, 2, -5, 3, 0, 0, false},
		{"sub-ns send gap", 32, 1, 2, 2e9, 3, 0, 0, false},
		{"NaN load", 32, 1, 2, math.NaN(), 3, 0, 0, false},
		{"zero duration", 32, 1, 0, 1e6, 3, 0, 0, false},
		{"negative duration", 32, 1, -1, 1e6, 3, 0, 0, false},
		{"infinite duration", 32, 1, math.Inf(1), 1e6, 3, 0, 0, false},
		{"zero beacon", 32, 1, 2, 1e6, 0, 0, 0, false},
		{"negative beacon", 32, 1, 2, 1e6, -3, 0, 0, false},
		{"jitter and loss", 32, 1, 2, 1e6, 3, 2, 0.05, true},
		{"every packet lost", 32, 1, 2, 1e6, 3, 0, 1, true},
		{"negative jitter", 32, 1, 2, 1e6, 3, -5, 0, false},
		{"NaN jitter", 32, 1, 2, 1e6, 3, math.NaN(), 0, false},
		{"negative loss", 32, 1, 2, 1e6, 3, 0, -1, false},
		{"loss above 1", 32, 1, 2, 1e6, 3, 0, 2, false},
		{"NaN loss", 32, 1, 2, 1e6, 3, 0, math.NaN(), false},
	} {
		topo, err := fabric(c.hosts, c.procs, c.dur, c.load, c.beacon, c.jitter, c.loss)
		if (err == nil) != c.ok {
			t.Errorf("%s: err = %v, want ok %v", c.name, err, c.ok)
		} else if c.ok && topo.NumHosts() != c.hosts {
			t.Errorf("%s: fabric has %d hosts, want %d", c.name, topo.NumHosts(), c.hosts)
		}
	}
}
