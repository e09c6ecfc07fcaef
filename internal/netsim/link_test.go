package netsim

import (
	"math"
	"testing"
)

// collector records delivery times.
type collector struct {
	sim   *Sim
	times []Time
	msgs  []Message
}

func (c *collector) Deliver(m Message) {
	c.times = append(c.times, c.sim.Now())
	c.msgs = append(c.msgs, m)
}

func TestLinkSerializationAndPropagation(t *testing.T) {
	s := NewSim(1)
	c := &collector{sim: s}
	// 1 Gbps, 1us propagation: a 125-byte message serializes in 1us.
	l := NewLink(s, LinkConfig{Name: "l", BitsPerSec: 1e9, Propagation: Microsecond}, c)
	s.At(0, func() { l.Send(fixedSize(125)) })
	s.Run()
	if len(c.times) != 1 {
		t.Fatalf("delivered %d messages, want 1", len(c.times))
	}
	if c.times[0] != 2*Microsecond {
		t.Errorf("delivery at %v, want 2us (1us tx + 1us prop)", c.times[0])
	}
}

func TestLinkFIFOQueueing(t *testing.T) {
	s := NewSim(1)
	c := &collector{sim: s}
	l := NewLink(s, LinkConfig{Name: "l", BitsPerSec: 1e9, Propagation: 0}, c)
	// Two back-to-back messages: the second waits for the first.
	s.At(0, func() {
		first := l.Send(fixedSize(125))
		if first != Microsecond {
			t.Errorf("first txDone = %v, want 1us", first)
		}
		second := l.Send(fixedSize(125))
		if second != 2*Microsecond {
			t.Errorf("second txDone = %v, want 2us", second)
		}
		if !l.Busy() {
			t.Error("link should be busy")
		}
	})
	s.Run()
	if len(c.times) != 2 || c.times[0] != Microsecond || c.times[1] != 2*Microsecond {
		t.Errorf("deliveries at %v, want [1us 2us]", c.times)
	}
	st := l.Stats()
	if st.Sent != 2 || st.Delivered != 2 || st.Bytes != 250 {
		t.Errorf("stats = %+v", st)
	}
	if st.MaxQueue != Microsecond {
		t.Errorf("MaxQueue = %v, want 1us", st.MaxQueue)
	}
}

func TestLinkIdleGap(t *testing.T) {
	s := NewSim(1)
	c := &collector{sim: s}
	l := NewLink(s, LinkConfig{Name: "l", BitsPerSec: 1e9, Propagation: 0}, c)
	s.At(0, func() { l.Send(fixedSize(125)) })
	// After an idle gap, serialization restarts from now.
	s.At(10*Microsecond, func() { l.Send(fixedSize(125)) })
	s.Run()
	if c.times[1] != 11*Microsecond {
		t.Errorf("second delivery at %v, want 11us", c.times[1])
	}
}

func TestLinkLossRateStatistics(t *testing.T) {
	s := NewSim(99)
	c := &collector{sim: s}
	l := NewLink(s, LinkConfig{Name: "l", BitsPerSec: 1e12, Propagation: 0, LossRate: 0.1}, c)
	const n = 20000
	s.At(0, func() {
		for i := 0; i < n; i++ {
			l.Send(fixedSize(100))
		}
	})
	s.Run()
	st := l.Stats()
	if st.Sent != n || st.Dropped+st.Delivered != n {
		t.Fatalf("stats don't add up: %+v", st)
	}
	got := float64(st.Dropped) / n
	if math.Abs(got-0.1) > 0.01 {
		t.Errorf("empirical loss %v, want ~0.1", got)
	}
}

func TestLinkSetLossRate(t *testing.T) {
	s := NewSim(1)
	c := &collector{sim: s}
	l := NewLink(s, LinkConfig{Name: "l", BitsPerSec: 1e9}, c)
	l.SetLossRate(0.5)
	defer func() {
		if recover() == nil {
			t.Error("SetLossRate(1.5) did not panic")
		}
	}()
	l.SetLossRate(1.5)
}

func TestLinkConfigValidation(t *testing.T) {
	s := NewSim(1)
	c := &collector{sim: s}
	for name, fn := range map[string]func(){
		"zero bandwidth": func() { NewLink(s, LinkConfig{BitsPerSec: 0}, c) },
		"bad loss":       func() { NewLink(s, LinkConfig{BitsPerSec: 1, LossRate: 1}, c) },
		"nil dst":        func() { NewLink(s, LinkConfig{BitsPerSec: 1}, nil) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", name)
				}
			}()
			fn()
		}()
	}
}

func TestLineRateThroughput(t *testing.T) {
	// A saturated 10 Gbps link delivers exactly line rate: 180-byte
	// packets at 10 Gbps = 6.944 Mpps.
	s := NewSim(1)
	delivered := 0
	var last Time
	sink := NodeFunc(func(Message) { delivered++; last = s.Now() })
	l := NewLink(s, LinkConfig{Name: "l", BitsPerSec: 10e9}, sink)
	const n = 100000
	s.At(0, func() {
		for i := 0; i < n; i++ {
			l.Send(fixedSize(180))
		}
	})
	s.Run()
	elapsed := float64(last) / 1e9
	pps := float64(delivered) / elapsed
	want := 10e9 / (180 * 8)
	if math.Abs(pps-want)/want > 0.001 {
		t.Errorf("throughput %.0f pps, want %.0f", pps, want)
	}
}

func TestLinkName(t *testing.T) {
	s := NewSim(1)
	l := NewLink(s, LinkConfig{Name: "uplink", BitsPerSec: 1}, NodeFunc(func(Message) {}))
	if l.Name() != "uplink" {
		t.Errorf("Name = %q", l.Name())
	}
	if l.NextFree() != 0 {
		t.Errorf("NextFree = %v, want 0", l.NextFree())
	}
}

// buf is a mutable message, as a pooled packet would be.
type buf struct{ b []byte }

func (m *buf) WireSize() int { return len(m.b) }

// copier is a collector that recycles what it is delivered, so it asks
// the link for independent duplicates.
type copier struct{ collector }

func (c *copier) Copy(m Message) Message {
	return &buf{b: append([]byte(nil), m.(*buf).b...)}
}

// TestLinkDuplicateCopies checks the duplication fault: a Copier
// receives the original and then an independent copy made at send
// time, so it may recycle the first delivery before the second
// arrives; a plain Node receives the same message twice.
func TestLinkDuplicateCopies(t *testing.T) {
	s := NewSim(5)
	cp := &copier{collector{sim: s}}
	plain := &collector{sim: s}
	cfg := LinkConfig{Name: "l", BitsPerSec: 1e9, Propagation: Microsecond, DupRate: 0.999}
	toCopier, toPlain := NewLink(s, cfg, cp), NewLink(s, cfg, plain)
	m1, m2 := &buf{b: []byte{1, 2, 3}}, &buf{b: []byte{4, 5}}
	s.At(0, func() {
		toCopier.Send(m1)
		m1.b[0] = 99 // the sender's later writes must not reach the copy
		toPlain.Send(m2)
	})
	s.Run()
	if len(cp.msgs) != 2 || len(plain.msgs) != 2 {
		t.Fatalf("delivered %d and %d messages, want 2 each", len(cp.msgs), len(plain.msgs))
	}
	first, dup := cp.msgs[0].(*buf), cp.msgs[1].(*buf)
	if first != m1 || dup == m1 {
		t.Fatal("Copier: want the original first, then an independent copy")
	}
	if string(dup.b) != string([]byte{1, 2, 3}) {
		t.Errorf("duplicate = %v, want the contents at send time [1 2 3]", dup.b)
	}
	if plain.msgs[0] != m2 || plain.msgs[1] != m2 {
		t.Error("plain Node: want the same message twice")
	}
	if cp.times[0] != cp.times[1] {
		t.Errorf("duplicate arrived at %v, original at %v", cp.times[1], cp.times[0])
	}
}
