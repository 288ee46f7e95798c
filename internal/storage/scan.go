package storage

import (
	"repro/internal/atom"
	"repro/internal/schema"
	"repro/internal/term"
)

// Unbound is the sentinel value of an unbound slot in a binding frame. Its
// Kind is outside the three term sorts, so it can never collide with a
// stored term.
const Unbound = ^term.Term(0)

// NewFrame returns a binding frame of n slots, all unbound. Frames are the
// slot-indexed replacement for map-based substitutions on the enumeration
// hot path: a compiled rule assigns each variable a fixed slot, and Probe
// writes row values directly into the slots.
func NewFrame(n int) []term.Term {
	f := make([]term.Term, n)
	for i := range f {
		f[i] = Unbound
	}
	return f
}

// ArgMode says how one argument position of a ScanPlan constrains or binds
// the frame. The mode of every position is fixed at compile time: because a
// plan's join order is fixed, it is statically known which slots are bound
// when a scan runs.
type ArgMode uint8

const (
	// ArgConst compares the row value against a constant from the rule.
	ArgConst ArgMode = iota
	// ArgBound compares the row value against frame[Slot], which is bound —
	// either by an earlier scan of the plan or by an earlier position of
	// this same atom.
	ArgBound
	// ArgBind writes the row value into frame[Slot] (first occurrence of
	// the variable along the join order).
	ArgBind
	// ArgSkip is a projection mask: the position's variable is dead — read
	// by no later scan, template, or frontier — so the probe neither
	// compares nor writes it. Scans that only feed the delta restriction
	// or an existence check compile to all-ArgSkip/ArgBound positions and
	// touch no slot at all.
	ArgSkip
)

// ScanArg is one compiled argument position.
type ScanArg struct {
	Mode  ArgMode
	Slot  int       // frame slot for ArgBound / ArgBind
	Const term.Term // comparison constant for ArgConst
}

type posKey struct {
	pos  int
	term term.Term
}

type posSlot struct {
	pos  int
	slot int
}

// ScanPlan is a compiled access path for one body atom: the predicate, the
// per-position modes, the slots the scan binds, and the index entry points
// usable for selectivity-based access-path choice. It is built once per
// (rule, join position) and reused for every probe of every round.
type ScanPlan struct {
	Pred schema.PredID
	Args []ScanArg

	// binds are the slots this scan writes (ArgBind positions, first
	// occurrence per slot); Probe resets them to Unbound between rows and
	// before returning, so the frame backtracks without copying.
	binds []int
	// allBound marks a ground existence check: every position is a
	// constant or an already-bound slot, so the probe resolves through the
	// relation's dedup table in O(1) instead of walking a posting list.
	// The head-bound rederive plans of DRed end on such scans.
	allBound bool
	// constKeys / boundKeys are the argument positions usable for index
	// selection: constants probe their predicate-local index directly,
	// bound slots are resolved against the frame at probe time.
	constKeys []posKey
	boundKeys []posSlot
}

// CompileScan builds a ScanPlan from the per-position modes. ArgSkip
// positions take part in nothing: no comparison, no slot write, no index
// selection.
func CompileScan(pred schema.PredID, args []ScanArg) *ScanPlan {
	sp := &ScanPlan{Pred: pred, Args: args}
	seen := make(map[int]bool)
	for i, a := range args {
		switch a.Mode {
		case ArgConst:
			sp.constKeys = append(sp.constKeys, posKey{pos: i, term: a.Const})
		case ArgBound:
			// A slot bound by an earlier position of this same atom is not
			// usable for index selection (it is unbound when the probe
			// starts); only slots bound before the scan qualify.
			if !seen[a.Slot] {
				sp.boundKeys = append(sp.boundKeys, posSlot{pos: i, slot: a.Slot})
			}
		case ArgBind:
			if !seen[a.Slot] {
				seen[a.Slot] = true
				sp.binds = append(sp.binds, a.Slot)
			}
		}
	}
	// Positions whose slot is bound mid-atom must not feed index selection:
	// drop any boundKey whose slot this very scan binds.
	kept := sp.boundKeys[:0]
	for _, bk := range sp.boundKeys {
		if !seen[bk.slot] {
			kept = append(kept, bk)
		}
	}
	sp.boundKeys = kept
	sp.allBound = true
	for _, a := range args {
		if a.Mode != ArgConst && a.Mode != ArgBound {
			sp.allBound = false
			break
		}
	}
	return sp
}

// matchRow applies the plan's argument modes to one stored row: constants
// and bound slots filter, bind slots are written, skip positions are
// ignored. It reports whether the row matches; the caller is responsible
// for resetting the bind slots afterwards.
func (sp *ScanPlan) matchRow(row, frame []term.Term) bool {
	for i := range sp.Args {
		a := &sp.Args[i]
		switch a.Mode {
		case ArgConst:
			if row[i] != a.Const {
				return false
			}
		case ArgBound:
			if row[i] != frame[a.Slot] {
				return false
			}
		case ArgBind:
			frame[a.Slot] = row[i]
		}
	}
	return true
}

// Probe enumerates the stored atoms matching the scan plan under the
// current frame, restricted to rows inserted at or after since and — when
// shards > 1 — to the shard-th contiguous sub-range of the delta window
// (a relation's local rows follow global insertion order, so the window is
// one contiguous local row range). For each matching row Probe binds the
// plan's ArgBind slots in frame and calls fn; the slots are reset to
// Unbound between rows and before Probe returns, so the caller's frame is
// unchanged afterwards. fn returning false stops the enumeration; Probe
// reports whether it ran to completion.
//
// Probe is the one way rows are read by pattern: every compiled rule,
// query and proof-search pattern of package plan runs on it.
func (db *DB) Probe(sp *ScanPlan, frame []term.Term, since Mark, shard, shards int, fn func() bool) bool {
	return db.ProbeWithRow(sp, frame, since, shard, shards, func(int32) bool { return fn() })
}

// ProbeWithRow is Probe handing fn the local row each match came from — the
// (pred, row) handle a DRed support search reads its body facts' state by,
// without a second dedup lookup per matched atom.
func (db *DB) ProbeWithRow(sp *ScanPlan, frame []term.Term, since Mark, shard, shards int, fn func(row int32) bool) bool {
	r := db.relOf(sp.Pred)
	if r == nil {
		return true
	}
	lo, hi := r.firstSince(since), r.rows()
	if shards > 1 {
		n := hi - lo
		lo, hi = lo+shard*n/shards, lo+(shard+1)*n/shards
	}
	if lo >= hi {
		return true
	}
	// Ground existence check: with every position constant or bound the
	// scan matches at most one live row, resolved through the dedup table
	// — no posting walk, no per-candidate comparisons. The window bound
	// still applies (a find hit below the delta window is no match); the
	// sharded path falls through so a hit is attributed to one shard by
	// the range logic below.
	if sp.allBound && shards <= 1 && len(sp.Args) <= 8 {
		// The tuple lives in a stack buffer: readers probe one frozen view
		// concurrently, so no DB-level scratch.
		var buf [8]term.Term
		args := buf[:0]
		for i := range sp.Args {
			a := &sp.Args[i]
			if a.Mode == ArgConst {
				args = append(args, a.Const)
			} else {
				args = append(args, frame[a.Slot])
			}
		}
		ri, ok := r.find(hashArgs(sp.Pred, args), args)
		if !ok || int(ri) < lo {
			return true
		}
		return fn(ri)
	}
	// Access-path choice: the smallest applicable index posting vs the
	// delta window itself. Postings span the whole relation; their
	// in-window portion is cut by binary search below. indexed is tracked
	// separately from the candidate set because the most selective outcome
	// is an ABSENT key — an empty posting proving zero matches.
	var cand candSet
	indexed := false
	best := hi - lo
	for _, ck := range sp.constKeys {
		if c := r.posting(ck.pos, ck.term); c.size() < best {
			best, cand, indexed = c.size(), c, true
		}
	}
	for _, bk := range sp.boundKeys {
		if c := r.posting(bk.pos, frame[bk.slot]); c.size() < best {
			best, cand, indexed = c.size(), c, true
		}
	}
	// hasDead gates the per-row liveness word test: pure-insert workloads
	// (every fixpoint engine) pay one counter load per scan, nothing per
	// row. Tombstoned rows stay in columns and postings until Compact, so
	// every enumeration path filters them here.
	hasDead := r.nDead != 0
	if !indexed {
		for ri := lo; ri < hi; ri++ {
			if hasDead && r.isDead(int32(ri)) {
				continue
			}
			ok := sp.matchRow(r.args(int32(ri)), frame)
			cont := true
			if ok {
				cont = fn(int32(ri))
			}
			for _, s := range sp.binds {
				frame[s] = Unbound
			}
			if !cont {
				return false
			}
		}
		return true
	}
	// Base rows, then tail rows: one ascending enumeration.
	for _, rows := range [2][]int32{cand.base.list(), cand.tail.list()} {
		for k := postingLowerBound(rows, int32(lo)); k < len(rows); k++ {
			ri := rows[k]
			if ri >= int32(hi) {
				return true
			}
			if hasDead && r.isDead(ri) {
				continue
			}
			ok := sp.matchRow(r.args(ri), frame)
			cont := true
			if ok {
				cont = fn(ri)
			}
			for _, s := range sp.binds {
				frame[s] = Unbound
			}
			if !cont {
				return false
			}
		}
	}
	return true
}

// ProbeRow applies the scan plan to exactly one local row of its relation
// — the pinned delta step of a row-list round (plan.Fixpoint.RunRows,
// DRed's overestimate): the listed fact is pinned at the plan's delta
// position and the remaining scans enumerate around it. Liveness is NOT
// checked, so the caller may pin a dead row; the overestimate pins rows
// that are still live, since tombstones land only after it drains.
// Binding and reset behave exactly as in Probe.
func (db *DB) ProbeRow(sp *ScanPlan, frame []term.Term, row int32, fn func() bool) bool {
	r := db.relOf(sp.Pred)
	if r == nil || int(row) >= r.rows() {
		return true
	}
	ok := sp.matchRow(r.args(row), frame)
	cont := true
	if ok {
		cont = fn()
	}
	for _, s := range sp.binds {
		frame[s] = Unbound
	}
	return cont
}

// postingLowerBound returns the first index of the ascending posting list
// whose row is at or after lo.
func postingLowerBound(rows []int32, lo int32) int {
	a, b := 0, len(rows)
	for a < b {
		mid := int(uint(a+b) >> 1)
		if rows[mid] >= lo {
			b = mid
		} else {
			a = mid + 1
		}
	}
	return a
}

// Row returns the stored atom at the given insertion index, binary-searching
// each relation's insertion spans — provenance's cold path. It panics on an
// index no row holds: out of range, or reclaimed by a localized Compact
// (provenance consumers never delete, so they never see one).
func (db *DB) Row(i int) atom.Atom {
	for _, r := range db.rels {
		if r == nil {
			continue
		}
		if ri, ok := r.rowOf(int32(i)); ok {
			return r.atomAt(ri)
		}
	}
	panic("storage: Row at an insertion index no row holds")
}
