package fpx

import "liquidarch/internal/netproto"

// DedupWindow is how many completed exchanges a platform remembers per
// board. The §2.6 client retransmits over a UDP path that drops,
// duplicates and reorders; any retransmitted request whose (source,
// command, sequence) matches a remembered exchange is answered with
// the cached reply — re-acked, never re-applied. 128 exchanges is
// more than a full client retry budget across every in-flight command
// a single board can queue.
const DedupWindow = 128

// dedupKey identifies one request/response exchange: the peer that
// issued it, the command and the client-stamped exchange sequence
// number from the v4 header.
type dedupKey struct {
	src Peer
	cmd uint8
	seq uint16
}

// dedupCache is a fixed-size exchange memory with FIFO eviction. It is
// owned by the board's single worker goroutine (like the platform's
// load-reassembly state) and therefore needs no locking.
type dedupCache struct {
	m    map[dedupKey]netproto.Packet
	ring []dedupKey
	next int
}

func newDedupCache() *dedupCache {
	return &dedupCache{
		m:    make(map[dedupKey]netproto.Packet, DedupWindow),
		ring: make([]dedupKey, DedupWindow),
	}
}

// lookup returns the cached reply to an exchange, if remembered.
func (d *dedupCache) lookup(k dedupKey) (netproto.Packet, bool) {
	resp, ok := d.m[k]
	return resp, ok
}

// remember stores the reply to an exchange, evicting the oldest
// remembered exchange once the window is full.
func (d *dedupCache) remember(k dedupKey, resp netproto.Packet) {
	if _, ok := d.m[k]; ok {
		d.m[k] = resp
		return
	}
	delete(d.m, d.ring[d.next])
	d.ring[d.next] = k
	d.next = (d.next + 1) % len(d.ring)
	d.m[k] = resp
}
