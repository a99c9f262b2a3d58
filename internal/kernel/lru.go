package kernel

import "fmt"

// listKind identifies one of the four page LRU lists Linux keeps
// (§2.3 of the paper): active/inactive × anonymous/file.
type listKind int

const (
	listActiveAnon listKind = iota + 1
	listInactiveAnon
	listActiveFile
	listInactiveFile
)

func (k listKind) String() string {
	switch k {
	case listActiveAnon:
		return "active_anon"
	case listInactiveAnon:
		return "inactive_anon"
	case listActiveFile:
		return "active_file"
	case listInactiveFile:
		return "inactive_file"
	default:
		return fmt.Sprintf("listKind(%d)", int(k))
	}
}

// span is a run of pages with a common owner sitting on one LRU list.
// Tracking runs instead of individual page structs keeps the simulation of a
// 128 GB node cheap while preserving the reclaim order and per-owner
// accounting that the paper's analysis depends on. Exactly one of region and
// file is non-nil.
type span struct {
	region *Region
	file   *File
	pages  int64
}

// nilNode terminates the intrusive prev/next chains.
const nilNode = int32(-1)

// spanNode is one list element: the span payload plus embedded prev/next
// indices into the owning arena. Replacing container/list, which allocated
// one heap Element per span, with arena indices makes list surgery
// allocation-free and keeps the nodes of one kernel contiguous in memory.
// ownerPrev/ownerNext thread a second, per-owner chain through the same
// nodes (see ownerChain).
type spanNode struct {
	span
	prev, next int32 // prev is toward the MRU end, next toward the LRU end
	// ownerPrev/ownerNext link the owner's spans on the same list, in the
	// same MRU→LRU orientation as prev/next.
	ownerPrev, ownerNext int32
}

// ownerChain is one owner's resumable cursor into an LRU list: the head and
// tail of the owner's spans on that list, threaded through the shared arena
// via ownerPrev/ownerNext. Owner-targeted scans (removeOwner — file-read
// promotion, munmap, madvise, fadvise, process exit) follow this chain and
// touch only the owner's own spans, instead of re-walking every cold span
// between them from the list tail. Indices are stored +1 so the zero value
// is the empty chain (owners are plain structs with no constructor hook).
type ownerChain struct {
	head1, tail1 int32
}

// spanArena owns the nodes of all four LRU lists of one kernel and pools
// the free ones, so spans moving between lists (aging, reclaim, re-fault)
// recycle nodes instead of producing garbage.
type spanArena struct {
	nodes []spanNode
	free  []int32
}

func (a *spanArena) alloc(sp span) int32 {
	nd := spanNode{span: sp, prev: nilNode, next: nilNode, ownerPrev: nilNode, ownerNext: nilNode}
	if n := len(a.free); n > 0 {
		idx := a.free[n-1]
		a.free = a.free[:n-1]
		a.nodes[idx] = nd
		return idx
	}
	a.nodes = append(a.nodes, nd)
	return int32(len(a.nodes) - 1)
}

// release returns a node to the free pool, dropping its owner references.
func (a *spanArena) release(idx int32) {
	a.nodes[idx] = spanNode{prev: nilNode, next: nilNode, ownerPrev: nilNode, ownerNext: nilNode}
	a.free = append(a.free, idx)
}

// lruList is a FIFO of spans: new pages enter at the front, reclaim scans
// from the back — the classic clock-ish approximation. The spans live in
// the kernel's shared arena; the list holds head/tail indices.
type lruList struct {
	kind  listKind
	arena *spanArena
	head  int32 // MRU end
	tail  int32 // LRU end
	pages int64
	// slot selects the owner-chain pair entry for this list: 0 for the
	// active lists, 1 for the inactive ones (each owner kind is ever on two
	// lists — anon owners on active/inactive anon, files on active/inactive
	// file — so a two-entry chain array per owner covers all four lists).
	slot int
}

func newLRUList(kind listKind, arena *spanArena) *lruList {
	slot := 0
	if kind == listInactiveAnon || kind == listInactiveFile {
		slot = 1
	}
	return &lruList{kind: kind, arena: arena, head: nilNode, tail: nilNode, slot: slot}
}

// chainOf returns the owner chain this list's slot selects for the node's
// owner.
func (l *lruList) chainOf(nd *spanNode) *ownerChain {
	return l.ownerChain(nd.region, nd.file)
}

// chainLink inserts the node at the MRU end of its owner's chain —
// mirroring push, which only inserts at the main-list head, so chain order
// always agrees with main-list order.
func (l *lruList) chainLink(idx int32) {
	nd := &l.arena.nodes[idx]
	c := l.chainOf(nd)
	nd.ownerNext = c.head1 - 1
	if c.head1 != 0 {
		l.arena.nodes[c.head1-1].ownerPrev = idx
	}
	c.head1 = idx + 1
	if c.tail1 == 0 {
		c.tail1 = idx + 1
	}
}

// chainUnlink detaches the node from its owner's chain (the main-list
// counterpart is unlink; both precede arena release).
func (l *lruList) chainUnlink(idx int32) {
	nd := &l.arena.nodes[idx]
	c := l.chainOf(nd)
	if nd.ownerPrev != nilNode {
		l.arena.nodes[nd.ownerPrev].ownerNext = nd.ownerNext
	} else {
		c.head1 = nd.ownerNext + 1
	}
	if nd.ownerNext != nilNode {
		l.arena.nodes[nd.ownerNext].ownerPrev = nd.ownerPrev
	} else {
		c.tail1 = nd.ownerPrev + 1
	}
}

// unlink detaches the node at idx from the chain (the caller releases it).
func (l *lruList) unlink(idx int32) {
	nd := &l.arena.nodes[idx]
	if nd.prev != nilNode {
		l.arena.nodes[nd.prev].next = nd.next
	} else {
		l.head = nd.next
	}
	if nd.next != nilNode {
		l.arena.nodes[nd.next].prev = nd.prev
	} else {
		l.tail = nd.prev
	}
}

// push adds a span of pages at the MRU end, merging with the current head
// when the owner matches so long runs of faults stay one span.
func (l *lruList) push(sp span) {
	if sp.pages <= 0 {
		return
	}
	if l.head != nilNode {
		h := &l.arena.nodes[l.head]
		if h.region == sp.region && h.file == sp.file {
			h.pages += sp.pages
			l.pages += sp.pages
			return
		}
	}
	idx := l.arena.alloc(sp)
	nd := &l.arena.nodes[idx]
	nd.next = l.head
	if l.head != nilNode {
		l.arena.nodes[l.head].prev = idx
	}
	l.head = idx
	if l.tail == nilNode {
		l.tail = idx
	}
	l.chainLink(idx)
	l.pages += sp.pages
}

// takeTail removes up to max pages from the LRU end, invoking fn for each
// span removed (oldest first, pages already deducted), and returns the
// total pages taken. fn may push into other lists of the same arena: the
// node is unlinked and released before fn runs.
func (l *lruList) takeTail(max int64, fn func(span)) int64 {
	var taken int64
	for max > 0 {
		idx := l.tail
		if idx == nilNode {
			break
		}
		nd := &l.arena.nodes[idx]
		n := nd.pages
		if n > max {
			n = max
		}
		out := span{region: nd.region, file: nd.file, pages: n}
		nd.pages -= n
		l.pages -= n
		max -= n
		taken += n
		if nd.pages == 0 {
			l.unlink(idx)
			l.chainUnlink(idx)
			l.arena.release(idx)
		}
		fn(out)
	}
	return taken
}

// removeOwner strips up to max pages belonging to the given owner from the
// list, from the LRU end inward. It returns the number of pages removed.
// Used when pages leave a list for reasons other than reclaim: file-read
// promotion, munmap, heap trim, mlock, madvise, fadvise, process exit. The
// walk follows the owner's chain — the owner's persistent cursor into the
// arena — so it visits exactly the owner's spans, in the same tail→head
// order (and with the same results) as the former whole-list scan, without
// re-walking the cold spans of every other owner in between.
func (l *lruList) removeOwner(region *Region, file *File, max int64) int64 {
	if max <= 0 {
		return 0
	}
	c := l.ownerChain(region, file)
	var removed int64
	for idx := c.tail1 - 1; idx != nilNode && removed < max; {
		nd := &l.arena.nodes[idx]
		prev := nd.ownerPrev
		n := nd.pages
		if n > max-removed {
			n = max - removed
		}
		nd.pages -= n
		l.pages -= n
		removed += n
		if nd.pages == 0 {
			l.unlink(idx)
			l.chainUnlink(idx)
			l.arena.release(idx)
		}
		idx = prev
	}
	return removed
}

// ownerChain resolves the chain for an (region, file) owner pair on this
// list (exactly one of the two is non-nil, as in span).
func (l *lruList) ownerChain(region *Region, file *File) *ownerChain {
	if region != nil {
		return &region.lruChain[l.slot]
	}
	return &file.lruChain[l.slot]
}

// checkChains verifies the owner chains against the main list: walked
// MRU→LRU, every owner's nodes must appear on that owner's chain in the
// same order, with matching head/tail anchors. O(spans); invariant checks
// only.
func (l *lruList) checkChains() {
	last := map[*ownerChain]int32{}
	for idx := l.head; idx != nilNode; idx = l.arena.nodes[idx].next {
		nd := &l.arena.nodes[idx]
		c := l.chainOf(nd)
		prev, seen := last[c]
		if !seen {
			if c.head1-1 != idx {
				panic(fmt.Sprintf("kernel: %v owner chain head %d, want %d", l.kind, c.head1-1, idx))
			}
			if nd.ownerPrev != nilNode {
				panic(fmt.Sprintf("kernel: %v owner chain head %d has ownerPrev %d", l.kind, idx, nd.ownerPrev))
			}
		} else {
			if l.arena.nodes[prev].ownerNext != idx || nd.ownerPrev != prev {
				panic(fmt.Sprintf("kernel: %v owner chain broken between %d and %d", l.kind, prev, idx))
			}
		}
		last[c] = idx
	}
	for c, idx := range last {
		if c.tail1-1 != idx {
			panic(fmt.Sprintf("kernel: %v owner chain tail %d, want %d", l.kind, c.tail1-1, idx))
		}
		if l.arena.nodes[idx].ownerNext != nilNode {
			panic(fmt.Sprintf("kernel: %v owner chain tail %d has ownerNext %d", l.kind, idx, l.arena.nodes[idx].ownerNext))
		}
	}
}

// lruSet bundles the four lists over one shared span arena.
type lruSet struct {
	arena        *spanArena
	activeAnon   *lruList
	inactiveAnon *lruList
	activeFile   *lruList
	inactiveFile *lruList
}

func newLRUSet() lruSet {
	arena := &spanArena{}
	return lruSet{
		arena:        arena,
		activeAnon:   newLRUList(listActiveAnon, arena),
		inactiveAnon: newLRUList(listInactiveAnon, arena),
		activeFile:   newLRUList(listActiveFile, arena),
		inactiveFile: newLRUList(listInactiveFile, arena),
	}
}

func (s lruSet) byKind(k listKind) *lruList {
	switch k {
	case listActiveAnon:
		return s.activeAnon
	case listInactiveAnon:
		return s.inactiveAnon
	case listActiveFile:
		return s.activeFile
	case listInactiveFile:
		return s.inactiveFile
	default:
		panic(fmt.Sprintf("kernel: bad list kind %d", int(k)))
	}
}
