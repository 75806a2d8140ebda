package netsim

import (
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
)

const putTwiceMsg = "netsim: PutPacket called twice on the same packet"

// putPanics releases p and reports whether PutPacket panicked; a panic with
// any message but the double-release guard's is re-raised.
func putPanics(p *Packet) (panicked bool) {
	defer func() {
		if r := recover(); r != nil {
			if r != putTwiceMsg {
				panic(r)
			}
			panicked = true
		}
	}()
	PutPacket(p)
	return false
}

// TestPutPacketTwicePanics: a second release of the same packet panics, and
// a packet handed out again by GetPacket can be released again.
func TestPutPacketTwicePanics(t *testing.T) {
	p := GetPacket()
	if putPanics(p) {
		t.Fatal("first release panicked")
	}
	if !putPanics(p) {
		t.Fatal("second release of the same packet did not panic")
	}
	// The pool may hand back any packet, p included; whichever it is, it is
	// live again and its release is legal — once.
	q := GetPacket()
	if putPanics(q) {
		t.Fatal("release after GetPacket panicked")
	}
	if !putPanics(q) {
		t.Fatal("second release after GetPacket did not panic")
	}
	// A literal packet that never came from the pool joins it on its first
	// release and is guarded from then on.
	lit := &Packet{Kind: KindBeacon}
	if putPanics(lit) || !putPanics(lit) {
		t.Fatal("literal packet: want first release legal, second a panic")
	}
}

// TestPutPacketConcurrentDoubleRelease: when several goroutines release the
// same packet at once — the ownership bug the guard exists for on the
// real-time fabrics — exactly one release goes through and every other one
// panics, however the race falls.
func TestPutPacketConcurrentDoubleRelease(t *testing.T) {
	const goroutines, rounds = 8, 4000
	for r := 0; r < rounds; r++ {
		p := &Packet{} // not from the pool: nothing else can hold it
		var start, returned atomic.Int32
		var wg sync.WaitGroup
		for g := 0; g < goroutines; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				start.Add(1)
				for start.Load() < goroutines { // line up, then race
					runtime.Gosched()
				}
				if !putPanics(p) {
					returned.Add(1)
				}
			}()
		}
		wg.Wait()
		if got := returned.Load(); got != 1 {
			t.Fatalf("round %d: %d of %d concurrent releases returned, want exactly 1", r, got, goroutines)
		}
	}
}

// TestPutPacketResetsEveryField: PutPacket clears the fields by name (it must
// not store to the guard word), so a field added to Packet and forgotten
// there would leak from one packet into the next. Every exported field is
// set to a non-zero value and must read zero after the release.
func TestPutPacketResetsEveryField(t *testing.T) {
	p := new(Packet)
	v := reflect.ValueOf(p).Elem()
	for i := 0; i < v.NumField(); i++ {
		f := v.Field(i)
		if !f.CanSet() {
			continue
		}
		switch f.Kind() {
		case reflect.Bool:
			f.SetBool(true)
		case reflect.Interface:
			f.Set(reflect.ValueOf([]byte("x")))
		case reflect.Int, reflect.Int32, reflect.Int64:
			f.SetInt(1)
		case reflect.Uint8, reflect.Uint16, reflect.Uint32:
			f.SetUint(1)
		default:
			t.Fatalf("field %s: kind %s not handled by this test", v.Type().Field(i).Name, f.Kind())
		}
	}
	PutPacket(p)
	for i := 0; i < v.NumField(); i++ {
		if f := v.Field(i); f.CanSet() && !f.IsZero() {
			t.Errorf("field %s = %v after PutPacket, want zero", v.Type().Field(i).Name, f)
		}
	}
}

const putBatchTwiceMsg = "netsim: PutAckBatch called twice on the same batch"

// putBatchPanics is putPanics for PutAckBatch.
func putBatchPanics(b *AckBatch) (panicked bool) {
	defer func() {
		if r := recover(); r != nil {
			if r != putBatchTwiceMsg {
				panic(r)
			}
			panicked = true
		}
	}()
	PutAckBatch(b)
	return false
}

// TestPutAckBatchTwicePanics: a second release of the same batch panics; a
// batch handed out again by GetAckBatch comes back empty, with its slice
// capacity kept, and can be released again.
func TestPutAckBatchTwicePanics(t *testing.T) {
	b := GetAckBatch()
	b.PSNs, b.ECN = append(b.PSNs, 7, 8, 9), append(b.ECN, false, true, false)
	if putBatchPanics(b) {
		t.Fatal("first release panicked")
	}
	if cap(b.PSNs) < 3 || cap(b.ECN) < 3 {
		t.Fatalf("release dropped the slices: cap %d / %d", cap(b.PSNs), cap(b.ECN))
	}
	if !putBatchPanics(b) {
		t.Fatal("second release of the same batch did not panic")
	}
	q := GetAckBatch()
	if len(q.PSNs) != 0 || len(q.ECN) != 0 {
		t.Fatalf("GetAckBatch returned %d PSNs, %d ECN marks, want an empty batch", len(q.PSNs), len(q.ECN))
	}
	if putBatchPanics(q) || !putBatchPanics(q) {
		t.Fatal("after GetAckBatch: want first release legal, second a panic")
	}
}

// TestPutPacketReleasesAckBatchOnce: the batch follows its packet — PutPacket
// releases it, exactly once, so whoever ends an ACK packet (the sender's
// HandlePacket, a drop site, a wire that encoded it) ends the batch too and
// must not release it separately.
func TestPutPacketReleasesAckBatchOnce(t *testing.T) {
	b := &AckBatch{PSNs: []uint32{1, 2}, ECN: []bool{false, true}} // not from the pool: nothing else can hold it
	p := GetPacket()
	p.Kind, p.Payload = KindAck, b
	PutPacket(p)
	if !b.pooled || len(b.PSNs) != 0 || len(b.ECN) != 0 {
		t.Fatalf("PutPacket left the batch live: pooled=%v, %d PSNs", b.pooled, len(b.PSNs))
	}
	if p.Payload != nil {
		t.Fatal("PutPacket kept the payload reference")
	}
	if !putBatchPanics(b) {
		t.Fatal("releasing the batch after its packet did not panic")
	}
}

// poolPutPanics is putPanics for a fabric's Pool.
func poolPutPanics(fp *Pool, p *Packet) (panicked bool) {
	defer func() {
		if r := recover(); r != nil {
			if r != putTwiceMsg {
				panic(r)
			}
			panicked = true
		}
	}()
	fp.Put(p)
	return false
}

// TestPoolDoubleReleasePanics: the fabric's list keeps the double-release
// guard — for its own packets, for a package-level GetPacket packet and for
// a literal, each of which it accepts once — and hands its packets out
// again zeroed and releasable.
func TestPoolDoubleReleasePanics(t *testing.T) {
	var fp Pool
	own := fp.Get()
	own.Kind, own.PSN = KindData, 9
	for name, p := range map[string]*Packet{"own": own, "GetPacket": GetPacket(), "literal": {Kind: KindBeacon}} {
		if poolPutPanics(&fp, p) {
			t.Fatalf("%s: first release panicked", name)
		}
		if !poolPutPanics(&fp, p) {
			t.Fatalf("%s: second release did not panic", name)
		}
	}
	if fp.Free() != 3 {
		t.Fatalf("list holds %d packets, want the 3 released", fp.Free())
	}
	q := fp.Get()
	if *q != (Packet{}) {
		t.Fatalf("Get returned %v, want a zeroed packet", q)
	}
	if poolPutPanics(&fp, q) || !poolPutPanics(&fp, q) {
		t.Fatal("after Get: want first release legal, second a panic")
	}
}

// TestPoolPayloadFollowsPacket: a frame or ACK batch released with its
// packet goes back to the packet's owner — this list, not the package-level
// one — emptied, and comes out again on the next take.
func TestPoolPayloadFollowsPacket(t *testing.T) {
	var fp Pool
	f := fp.GetFrame()
	f.Entries = append(f.Entries, FrameEntry{TS: 5, Data: []byte("x")})
	b := &AckBatch{PSNs: []uint32{1}, ECN: []bool{true}} // not from any list
	for _, pl := range []any{f, b} {
		p := fp.Get()
		p.Payload = pl
		fp.Put(p)
	}
	if len(fp.frames) != 1 || fp.frames[0] != f || len(f.Entries) != 0 || cap(f.Entries) == 0 {
		t.Fatalf("frame not back on the fabric's list emptied: %d frames, %d entries", len(fp.frames), len(f.Entries))
	}
	if len(fp.batches) != 1 || fp.batches[0] != b || len(b.PSNs) != 0 {
		t.Fatalf("batch not back on the fabric's list emptied: %d batches", len(fp.batches))
	}
	if fp.GetFrame() != f || fp.GetAckBatch() != b {
		t.Fatal("the next takes did not reuse the released frame and batch")
	}
	if putBatchPanics(b) {
		t.Fatal("a batch taken again is live: its release must be legal")
	}
}

// TestPoolNilIsPackageLevel: a nil *Pool is the package-level list, so code
// shared with the real-time fabric calls one set of methods.
func TestPoolNilIsPackageLevel(t *testing.T) {
	var fp *Pool
	p := fp.Get()
	p.Payload = fp.GetAckBatch()
	if poolPutPanics(fp, p) || !poolPutPanics(fp, p) {
		t.Fatal("nil pool: want first release legal, second a panic")
	}
	q := fp.Get()
	f := fp.GetFrame()
	q.Payload = f
	fp.Put(q)
	if !f.pooled {
		t.Fatal("nil pool: the frame was not released with its packet")
	}
}
