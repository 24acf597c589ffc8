package flowtable

import (
	"net/netip"
	"testing"
	"time"

	"videoplat/internal/packet"
)

func key(i int) packet.FlowKey {
	return packet.FlowKey{
		Src:     netip.AddrFrom4([4]byte{192, 168, 1, byte(i)}),
		Dst:     netip.MustParseAddr("203.0.113.10"),
		SrcPort: uint16(50000 + i),
		DstPort: 443,
		Proto:   packet.ProtoTCP,
	}
}

var t0 = time.Date(2023, 7, 7, 12, 0, 0, 0, time.UTC)

func TestCapEvictsLRU(t *testing.T) {
	type ev struct {
		k packet.FlowKey
		r Reason
	}
	var evs []ev
	tb := New[int](Config{MaxFlows: 2}, func(k packet.FlowKey, v int, r Reason) {
		evs = append(evs, ev{k, r})
	})
	tb.Put(key(1), 1, t0)
	tb.Put(key(2), 2, t0.Add(time.Second))
	// Touch 1 so 2 becomes the LRU victim.
	if _, ok := tb.Touch(key(1), t0.Add(2*time.Second)); !ok {
		t.Fatal("flow 1 missing")
	}
	tb.Put(key(3), 3, t0.Add(3*time.Second))

	if tb.Len() != 2 {
		t.Fatalf("len = %d, want 2", tb.Len())
	}
	if len(evs) != 1 || evs[0].k != key(2) || evs[0].r != ReasonCap {
		t.Fatalf("evictions = %+v, want flow 2 by cap", evs)
	}
	if _, ok := tb.Touch(key(2), t0); ok {
		t.Error("evicted flow 2 still present")
	}
	st := tb.Stats()
	if st.Active != 2 || st.Inserted != 3 || st.EvictedCap != 1 || st.EvictedIdle != 0 {
		t.Errorf("stats = %+v", st)
	}
}

func TestIdleExpiry(t *testing.T) {
	var evicted []packet.FlowKey
	tb := New[string](Config{IdleTimeout: time.Minute}, func(k packet.FlowKey, v string, r Reason) {
		if r != ReasonIdle {
			t.Errorf("reason = %v, want idle", r)
		}
		evicted = append(evicted, k)
	})
	tb.Put(key(1), "a", t0)
	tb.Put(key(2), "b", t0.Add(30*time.Second))

	if n := tb.ExpireIdle(t0.Add(45 * time.Second)); n != 0 {
		t.Fatalf("premature expiry of %d flows", n)
	}
	// 1 is 70s idle, 2 only 40s.
	if n := tb.ExpireIdle(t0.Add(70 * time.Second)); n != 1 {
		t.Fatalf("expired %d flows, want 1", n)
	}
	if len(evicted) != 1 || evicted[0] != key(1) {
		t.Fatalf("evicted = %v, want flow 1", evicted)
	}
	// Touching refreshes the idle clock.
	tb.Touch(key(2), t0.Add(80*time.Second))
	if n := tb.ExpireIdle(t0.Add(100 * time.Second)); n != 0 {
		t.Fatalf("touched flow expired (%d)", n)
	}
	if n := tb.ExpireIdle(t0.Add(141 * time.Second)); n != 1 {
		t.Fatalf("expired %d flows, want 1", n)
	}
	st := tb.Stats()
	if st.EvictedIdle != 2 || st.Evicted() != 2 || st.Active != 0 {
		t.Errorf("stats = %+v", st)
	}
}

func TestUnboundedNeverEvicts(t *testing.T) {
	tb := New[int](Config{}, func(packet.FlowKey, int, Reason) {
		t.Error("eviction from unbounded table")
	})
	for i := 0; i < 1000; i++ {
		tb.Put(key(i), i, t0)
	}
	if tb.ExpireIdle(t0.Add(24*time.Hour)) != 0 {
		t.Error("idle expiry with zero timeout")
	}
	if tb.Len() != 1000 {
		t.Errorf("len = %d", tb.Len())
	}
}

func TestRangeMRUOrderAndDelete(t *testing.T) {
	tb := New[int](Config{}, nil)
	for i := 1; i <= 3; i++ {
		tb.Put(key(i), i, t0.Add(time.Duration(i)*time.Second))
	}
	var got []int
	tb.Range(func(k packet.FlowKey, v int) bool {
		got = append(got, v)
		return true
	})
	if len(got) != 3 || got[0] != 3 || got[2] != 1 {
		t.Errorf("range order = %v, want [3 2 1]", got)
	}
	if !tb.Delete(key(2)) || tb.Delete(key(2)) {
		t.Error("delete bookkeeping wrong")
	}
	if tb.Len() != 2 || tb.Stats().Active != 2 {
		t.Errorf("len = %d after delete", tb.Len())
	}
	tb.Clear()
	if tb.Len() != 0 || tb.Stats().Active != 0 {
		t.Error("clear left entries")
	}
	if st := tb.Stats(); st.Evicted() != 0 {
		t.Errorf("delete/clear counted as eviction: %+v", st)
	}
}

func TestPutExistingOverwritesAndTouches(t *testing.T) {
	tb := New[int](Config{MaxFlows: 2, IdleTimeout: time.Minute}, nil)
	tb.Put(key(1), 1, t0)
	tb.Put(key(2), 2, t0.Add(time.Second))
	tb.Put(key(1), 11, t0.Add(2*time.Second)) // refresh, no eviction
	if st := tb.Stats(); st.Inserted != 2 || st.EvictedCap != 0 {
		t.Fatalf("stats = %+v", st)
	}
	if v, ok := tb.Touch(key(1), t0.Add(2*time.Second)); !ok || v != 11 {
		t.Fatalf("value = %d, want 11", v)
	}
	// After the refresh at +2s, flow 1 outlives flow 2.
	tb.ExpireIdle(t0.Add(61*time.Second + 500*time.Millisecond))
	if _, ok := tb.Touch(key(1), t0); !ok {
		t.Error("refreshed flow expired")
	}
	if _, ok := tb.Touch(key(2), t0); ok {
		t.Error("stale flow survived")
	}
}

// TestReusedEntryCarriesNothing pins entry recycling: an entry that left the
// table (evicted or deleted) is cleared before it is kept for reuse, so the
// flow that next takes it inherits no key, value or LRU links from its last
// life, and the old value is no longer reachable through the table.
func TestReusedEntryCarriesNothing(t *testing.T) {
	v1, v2, v3, v9 := new(int), new(int), new(int), new(int)
	var evictedKey packet.FlowKey
	var evictedVal *int
	tb := New[*int](Config{IdleTimeout: time.Minute}, func(k packet.FlowKey, v *int, _ Reason) {
		evictedKey, evictedVal = k, v
	})
	tb.Put(key(1), v1, t0)
	tb.Put(key(2), v2, t0.Add(10*time.Second))
	tb.Put(key(3), v3, t0.Add(20*time.Second))

	// Only flow 1 has been idle for the full minute.
	if n := tb.ExpireIdle(t0.Add(65 * time.Second)); n != 1 {
		t.Fatalf("expired %d flows, want 1", n)
	}
	if evictedKey != key(1) || evictedVal != v1 {
		t.Fatalf("hook saw %v/%p, want flow 1's key and value", evictedKey, evictedVal)
	}
	if len(tb.free) != 1 {
		t.Fatalf("free list holds %d entries, want 1", len(tb.free))
	}
	old := tb.free[0]
	if *old != (entry[*int]{}) {
		t.Fatalf("recycled entry not cleared: %+v", *old)
	}

	tb.Put(key(9), v9, t0.Add(70*time.Second))
	e := tb.entries[key(9)]
	if e != old {
		t.Fatal("Put allocated a new entry instead of reusing the recycled one")
	}
	if e.key != key(9) || e.value != v9 || !e.lastSeen.Equal(t0.Add(70*time.Second)) {
		t.Errorf("reused entry = key %v value %p lastSeen %v, want flow 9's", e.key, e.value, e.lastSeen)
	}
	if e.prev != nil || e.next != tb.entries[key(3)] || tb.head != e {
		t.Error("reused entry's LRU links are not those of a fresh head")
	}
	var order []packet.FlowKey
	tb.Range(func(k packet.FlowKey, v *int) bool {
		if v == v1 {
			t.Errorf("evicted value still reachable under %v", k)
		}
		order = append(order, k)
		return true
	})
	if len(order) != 3 || order[0] != key(9) || order[1] != key(3) || order[2] != key(2) {
		t.Errorf("LRU order = %v, want 9, 3, 2", order)
	}
	if tb.tail != tb.entries[key(2)] || tb.tail.next != nil {
		t.Error("tail is not flow 2")
	}

	// Delete recycles too, with the same clearing.
	if !tb.Delete(key(3)) {
		t.Fatal("flow 3 missing")
	}
	if len(tb.free) != 1 || *tb.free[0] != (entry[*int]{}) {
		t.Fatalf("deleted entry not recycled cleared: %d free", len(tb.free))
	}
	if tb.entries[key(9)].next != tb.entries[key(2)] || tb.entries[key(2)].prev != tb.entries[key(9)] {
		t.Error("deleting flow 3 did not relink 9 and 2")
	}
}
