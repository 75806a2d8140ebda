package main

import (
	"math"
	"testing"
)

// TestFabricFlags checks the flag validation without starting a run: every
// rejected row would otherwise build the wrong fabric or never end.
func TestFabricFlags(t *testing.T) {
	for _, c := range []struct {
		name              string
		hosts, procs      int
		dur, load, beacon float64
		ok                bool
	}{
		{"defaults", 32, 1, 2, 1e6, 3, true},
		{"paper scale", 32, 16, 0.25, 5e6, 3, true},
		{"one rack", 5, 1, 2, 1e6, 3, true},
		{"two racks", 14, 1, 2, 1e6, 3, true},
		{"odd past one rack", 15, 1, 2, 1e6, 3, false},
		{"between 16 and 32", 20, 1, 2, 1e6, 3, false},
		{"past 32", 64, 1, 2, 1e6, 3, false},
		{"no hosts", 0, 1, 2, 1e6, 3, false},
		{"negative hosts", -4, 1, 2, 1e6, 3, false},
		{"no procs", 32, 0, 2, 1e6, 3, false},
		{"zero load", 32, 1, 2, 0, 3, false},
		{"negative load", 32, 1, 2, -5, 3, false},
		{"sub-ns send gap", 32, 1, 2, 2e9, 3, false},
		{"NaN load", 32, 1, 2, math.NaN(), 3, false},
		{"zero duration", 32, 1, 0, 1e6, 3, false},
		{"negative duration", 32, 1, -1, 1e6, 3, false},
		{"infinite duration", 32, 1, math.Inf(1), 1e6, 3, false},
		{"zero beacon", 32, 1, 2, 1e6, 0, false},
		{"negative beacon", 32, 1, 2, 1e6, -3, false},
	} {
		topo, err := fabric(c.hosts, c.procs, c.dur, c.load, c.beacon)
		if (err == nil) != c.ok {
			t.Errorf("%s: err = %v, want ok %v", c.name, err, c.ok)
		} else if c.ok && topo.NumHosts() != c.hosts {
			t.Errorf("%s: fabric has %d hosts, want %d", c.name, topo.NumHosts(), c.hosts)
		}
	}
}
