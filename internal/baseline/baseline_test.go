package baseline

import "testing"

func TestSequencerScalesUntilSaturation(t *testing.T) {
	// With few processes the sequencer keeps up; per-process throughput
	// collapses as N grows past SeqRate/OfferedPerProc.
	small := RunSwitchSeq(DefaultConfig(4))
	large := RunSwitchSeq(DefaultConfig(256))
	if small.TputPerProc < 2e6 {
		t.Fatalf("small-N sequencer throughput %.2g too low", small.TputPerProc)
	}
	if large.TputPerProc > small.TputPerProc/2 {
		t.Fatalf("sequencer did not bottleneck at 256 procs: %.2g vs %.2g",
			large.TputPerProc, small.TputPerProc)
	}
}

func TestHostSeqSlowerThanSwitchSeq(t *testing.T) {
	sw := RunSwitchSeq(DefaultConfig(64))
	host := RunHostSeq(DefaultConfig(64))
	if host.TputPerProc >= sw.TputPerProc {
		t.Fatalf("host sequencer (%.2g) not slower than switch sequencer (%.2g)",
			host.TputPerProc, sw.TputPerProc)
	}
}

func TestSequencerLatencySoarsAtSaturation(t *testing.T) {
	under := RunSwitchSeq(DefaultConfig(8))
	over := RunSwitchSeq(DefaultConfig(512))
	if over.Latency.Mean() < 4*under.Latency.Mean() {
		t.Fatalf("saturated sequencer latency %.1fus not far above unsaturated %.1fus",
			over.Latency.Mean(), under.Latency.Mean())
	}
}

func TestTokenThroughputLowAndDecliningWithN(t *testing.T) {
	small := RunToken(DefaultConfig(4))
	large := RunToken(DefaultConfig(64))
	if small.TputPerProc > 5e6 {
		t.Fatalf("token ring impossibly fast: %.2g", small.TputPerProc)
	}
	if large.TputPerProc >= small.TputPerProc {
		t.Fatalf("token per-proc throughput did not decline with N: %.2g vs %.2g",
			large.TputPerProc, small.TputPerProc)
	}
}

func TestTokenLatencyGrowsWithRingSize(t *testing.T) {
	small := RunToken(DefaultConfig(4))
	large := RunToken(DefaultConfig(64))
	if large.Latency.Mean() <= small.Latency.Mean() {
		t.Fatalf("token latency should grow with ring size: %.1f vs %.1f",
			large.Latency.Mean(), small.Latency.Mean())
	}
}

func TestLamportLatencyBoundedByExchangeInterval(t *testing.T) {
	cfg := DefaultConfig(16)
	r := RunLamport(cfg)
	if r.TputPerProc == 0 {
		t.Fatal("lamport delivered nothing")
	}
	// Delivery waits for the slowest peer's next exchange: mean latency
	// must be at least a fraction of the interval.
	if r.Latency.Mean() < float64(exchangeInterval)/1000/4 {
		t.Fatalf("lamport latency %.2fus implausibly below exchange interval", r.Latency.Mean())
	}
}

func TestLamportOverheadGrowsWithN(t *testing.T) {
	small := RunLamport(DefaultConfig(8))
	large := RunLamport(DefaultConfig(512))
	if large.TputPerProc >= small.TputPerProc {
		t.Fatalf("lamport data throughput should shrink with N: %.2g vs %.2g",
			large.TputPerProc, small.TputPerProc)
	}
}

func TestResultsDeterministic(t *testing.T) {
	a := RunSwitchSeq(DefaultConfig(32))
	b := RunSwitchSeq(DefaultConfig(32))
	if a.TputPerProc != b.TputPerProc || a.Latency.Mean() != b.Latency.Mean() {
		t.Fatal("same-seed baseline runs diverged")
	}
}
