package events

import (
	"sync"
	"time"
)

// DefaultJournalSize is the bus journal ring capacity: enough recent
// history that a watcher polling every few hundred milliseconds never
// gaps on a healthy node.
const DefaultJournalSize = 1024

// firstRingLen is the slot count a ring starts with on its first
// event. Rings double from there up to their capacity, so a node pays
// for the events it holds, not for the bound: the journal and the
// built-in subscribers' rings at full size are about 450 KiB of slots
// per memory-only node, most of which an idle or promptly drained node
// never fills.
const firstRingLen = 16

// grownLen is the next length of a ring of n slots bounded by limit.
func grownLen(n, limit int) int {
	return min(max(2*n, firstRingLen), limit)
}

// BusConfig parameterizes a bus.
type BusConfig struct {
	// Node is stamped into every published event as the publisher.
	Node string
	// Now overrides the event clock (virtual-clock campaigns, tests);
	// nil means time.Now.
	Now func() time.Time
	// FirstSeq is the first sequence number to assign; 0 means 1. A
	// flight recorder seeds this with its recovered high-water mark so
	// sequence numbers — and watcher cursors — stay monotone across a
	// node restart.
	FirstSeq uint64
}

// Bus is a bounded, non-blocking publisher. Publish stamps the event,
// appends it to the cursor journal, and offers it to every subscriber
// ring — all O(subscribers) bounded work under short mutexes; it never
// waits on a consumer. The zero value is not usable; call NewBus.
type Bus struct {
	node string
	now  func() time.Time

	mu        sync.Mutex
	next      uint64  // next sequence number to assign
	ring      []Event // the journal; event seq sits at seq % len(ring)
	count     int     // filled journal slots (≤ len(ring))
	published uint64
	subs      []*Subscription
	closed    bool
}

// NewBus builds a bus.
func NewBus(cfg BusConfig) *Bus {
	first := cfg.FirstSeq
	if first == 0 {
		first = 1
	}
	now := cfg.Now
	if now == nil {
		now = time.Now
	}
	return &Bus{
		node: cfg.Node,
		now:  now,
		next: first,
	}
}

// Node returns the publisher name stamped into events.
func (b *Bus) Node() string { return b.node }

// Publish stamps ev (Seq, Node, UnixNano), records it in the journal,
// and offers it to every subscriber without blocking. It returns the
// assigned sequence number, or 0 if the bus is closed. Safe for
// concurrent use from hot paths: the only waiting is on the bus mutex
// itself, which is never held across consumer work.
func (b *Bus) Publish(ev Event) uint64 {
	sanitize(&ev)
	ts := b.now().UnixNano()

	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		return 0
	}
	ev.Seq = b.next
	ev.Node = b.node
	ev.UnixNano = ts
	b.next++
	b.published++
	b.record(ev)
	// Fan out under the bus lock so every subscriber sees the same
	// total order. Each push is constant-time ring bookkeeping — the
	// lock is never held across consumer work.
	for _, s := range b.subs {
		s.push(ev)
	}
	b.mu.Unlock()
	return ev.Seq
}

// record places ev in the cursor journal; caller holds b.mu. A full
// ring below DefaultJournalSize doubles first, every held event moving
// to its seq's slot in the longer ring; a full ring at the bound
// overwrites its oldest event.
func (b *Bus) record(ev Event) {
	if b.count == len(b.ring) && b.count < DefaultJournalSize {
		ring := make([]Event, grownLen(b.count, DefaultJournalSize))
		for _, old := range b.ring {
			ring[old.Seq%uint64(len(ring))] = old
		}
		b.ring = ring
	}
	b.ring[ev.Seq%uint64(len(b.ring))] = ev
	if b.count < len(b.ring) {
		b.count++
	}
}

// Subscribe registers a consumer with its own ring of at most capacity
// events. A subscriber that falls behind loses its oldest buffered
// events; Subscription.Stats reports exactly how many. capacity ≤ 0
// defaults to DefaultJournalSize. The ring holds no slots until the
// first event and grows as the backlog does, so capacity is a bound,
// not an allocation.
func (b *Bus) Subscribe(name string, capacity int) *Subscription {
	if capacity <= 0 {
		capacity = DefaultJournalSize
	}
	s := &Subscription{
		name:     name,
		bus:      b,
		capacity: capacity,
		notify:   make(chan struct{}, 1),
	}
	b.mu.Lock()
	if b.closed {
		s.closed = true
	} else {
		b.subs = append(b.subs, s)
	}
	b.mu.Unlock()
	return s
}

// unsubscribe detaches s; idempotent.
func (b *Bus) unsubscribe(s *Subscription) {
	b.mu.Lock()
	defer b.mu.Unlock()
	for i, cur := range b.subs {
		if cur == s {
			b.subs = append(b.subs[:i], b.subs[i+1:]...)
			return
		}
	}
}

// ReadSince serves the cursor journal: events with Seq ≥ cursor, at
// most max of them (max ≤ 0 means 256). next is the cursor to resume
// from; missed counts events that fell off the ring before the cursor
// could read them — the resume-token contract `node/events` exposes.
func (b *Bus) ReadSince(cursor uint64, max int) (evs []Event, next uint64, missed uint64) {
	if max <= 0 {
		max = 256
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	first := b.next - uint64(b.count) // oldest seq still in the ring
	if cursor < 1 {
		cursor = 1
	}
	if cursor < first {
		missed = first - cursor
		cursor = first
	}
	if cursor >= b.next {
		return nil, b.next, missed
	}
	n := int(b.next - cursor)
	if n > max {
		n = max
	}
	evs = make([]Event, n)
	for i := 0; i < n; i++ {
		evs[i] = b.ring[(cursor+uint64(i))%uint64(len(b.ring))]
	}
	return evs, cursor + uint64(n), missed
}

// NextSeq returns the sequence number the next published event will
// receive — the cursor a watcher starts from to see only new events.
func (b *Bus) NextSeq() uint64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.next
}

// SubscriberStats is one subscriber's delivery ledger.
type SubscriberStats struct {
	// Name identifies the subscriber ("metrics", "flight", ...).
	Name string
	// Received counts events offered to the subscriber's ring.
	Received uint64
	// Dropped counts events overwritten before the subscriber drained
	// them. Exact: Received - Dropped events were actually consumed or
	// are still buffered.
	Dropped uint64
}

// BusStats is a point-in-time bus ledger.
type BusStats struct {
	// Published counts events accepted by Publish since construction.
	Published uint64
	// Subscribers holds one entry per live subscription.
	Subscribers []SubscriberStats
}

// Stats snapshots the bus ledger.
func (b *Bus) Stats() BusStats {
	b.mu.Lock()
	subs := append([]*Subscription(nil), b.subs...)
	st := BusStats{Published: b.published}
	b.mu.Unlock()
	for _, s := range subs {
		recv, drop := s.Stats()
		st.Subscribers = append(st.Subscribers, SubscriberStats{Name: s.name, Received: recv, Dropped: drop})
	}
	return st
}

// Drops returns the total events dropped across all live subscribers.
func (b *Bus) Drops() uint64 {
	var total uint64
	for _, s := range b.Stats().Subscribers {
		total += s.Dropped
	}
	return total
}

// Close stops the bus: further publishes are dropped (returning 0) and
// every subscription is woken and closed.
func (b *Bus) Close() {
	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		return
	}
	b.closed = true
	subs := b.subs
	b.subs = nil
	b.mu.Unlock()
	for _, s := range subs {
		s.markClosed()
	}
}

// Subscription is one consumer's bounded view of the bus: a ring of at
// most capacity events that the bus pushes into and the consumer
// drains. All methods are safe for concurrent use.
type Subscription struct {
	name string
	bus  *Bus

	mu       sync.Mutex
	buf      []Event // ring slots; grows on use, never past capacity
	capacity int
	start    int // index of oldest buffered event
	n        int // buffered count
	received uint64
	dropped  uint64
	closed   bool

	notify chan struct{}
}

// Name returns the subscriber name given to Subscribe.
func (s *Subscription) Name() string { return s.name }

// push offers one event; called by the bus. Amortised constant-time:
// a ring full below its capacity doubles, and a ring full at its
// capacity overwrites the oldest buffered event and counts it dropped.
func (s *Subscription) push(ev Event) {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.received++
	if s.n == s.capacity {
		s.buf[s.start] = ev
		s.start = (s.start + 1) % len(s.buf)
		s.dropped++
	} else {
		if s.n == len(s.buf) {
			buf := make([]Event, grownLen(s.n, s.capacity))
			s.copyOut(buf)
			s.buf, s.start = buf, 0
		}
		s.buf[(s.start+s.n)%len(s.buf)] = ev
		s.n++
	}
	s.mu.Unlock()
	select {
	case s.notify <- struct{}{}:
	default:
	}
}

// copyOut copies the buffered events, oldest first, into dst and
// returns the ring's two occupied runs; caller holds s.mu.
func (s *Subscription) copyOut(dst []Event) (head, tail []Event) {
	head = s.buf[s.start:min(s.start+s.n, len(s.buf))]
	tail = s.buf[:s.n-len(head)]
	copy(dst[copy(dst, head):], tail)
	return head, tail
}

// Drain removes and returns every buffered event, oldest first. It
// returns nil when the buffer is empty. The slots it empties are
// zeroed, so the ring keeps no drained event's strings or fields
// alive.
func (s *Subscription) Drain() []Event {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.n == 0 {
		return nil
	}
	out := make([]Event, s.n)
	head, tail := s.copyOut(out)
	clear(head)
	clear(tail)
	s.start, s.n = 0, 0
	return out
}

// Ready returns a channel that receives a token when new events may be
// buffered (coalesced: one token can cover many events) and when the
// subscription closes. Consumers loop: drain, then wait on Ready.
func (s *Subscription) Ready() <-chan struct{} { return s.notify }

// Stats returns the received/dropped counters.
func (s *Subscription) Stats() (received, dropped uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.received, s.dropped
}

// Closed reports whether the subscription has been closed (by either
// side).
func (s *Subscription) Closed() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.closed
}

// markClosed flags the subscription closed and wakes any waiter.
func (s *Subscription) markClosed() {
	s.mu.Lock()
	s.closed = true
	s.mu.Unlock()
	select {
	case s.notify <- struct{}{}:
	default:
	}
}

// Close detaches the subscription from the bus and wakes any waiter.
func (s *Subscription) Close() {
	s.bus.unsubscribe(s)
	s.markClosed()
}
