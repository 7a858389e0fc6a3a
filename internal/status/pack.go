package status

import "math/bits"

// Word packing shared by both non-blocking leaves: one status byte per
// node, eight nodes per 64-bit atomic word. The five status bits of a
// node occupy the low bits of its byte (lane); the upper three bits of
// every lane stay zero. The byte-per-node layout (rather than the
// paper's §III.D 5-bit fields) trades 37% of the footprint for lanes
// that sit on natural byte boundaries, which is what makes the SWAR
// level scan below possible: one atomic 64-bit load yields eight node
// statuses, and classic free-byte bit tricks locate the first free
// candidate without per-node loads.

// FieldBits is the width of one packed status field (lane).
const FieldBits = 8

// LanesPerWord is how many node statuses one 64-bit word carries.
const LanesPerWord = 64 / FieldBits

// Lane-broadcast constants: the usual SWAR companions with one bit (or
// one byte value) repeated in every lane.
const (
	laneLSB  uint64 = 0x0101010101010101 // low bit of every lane
	laneMSB  uint64 = 0x8080808080808080 // high bit of every lane
	lane7F   uint64 = 0x7F7F7F7F7F7F7F7F
	busyAll  uint64 = uint64(Busy) * laneLSB // Busy mask in every lane
	occAll   uint64 = uint64(Occ) * laneLSB
	coalAll  uint64 = uint64(CoalLeft|CoalRight) * laneLSB
	statMask uint64 = uint64(Mask) * laneLSB
)

// ShiftToLane positions a single-node status value (or mask) in lane j
// of a packed word — the building block for word-level atomic Or/And:
// setting a branch's coalescing bit is Or(ShiftToLane(CoalBit(c), j)),
// clearing a node outright is And(^ShiftToLane(Mask, j)).
func ShiftToLane(val uint32, j int) uint64 {
	return uint64(val&Mask) << (FieldBits * j)
}

// OccLane reports whether lane j's node is itself reserved (its Occ bit
// set) without extracting the lane.
func OccLane(word uint64, j int) bool {
	return word&ShiftToLane(Occ, j) != 0
}

// MarkLane returns word with the child's branch marked occupied and its
// coalescing bit cleared in lane j — the word-level form of
// Mark(CleanCoal(field, child), child), saving the extract/reinsert of
// the climb's hottest step.
func MarkLane(word uint64, j int, child uint64) uint64 {
	return word&^ShiftToLane(CoalLeft>>mod2(child), j) | ShiftToLane(OccLeft>>mod2(child), j)
}

// CoalLane reports whether lane j carries the coalescing bit of the
// child's branch (word-level IsCoal).
func CoalLane(word uint64, j int, child uint64) bool {
	return word&ShiftToLane(CoalLeft>>mod2(child), j) != 0
}

// UnmarkLane returns word with the child's branch occupancy and
// coalescing bits cleared in lane j (word-level Unmark).
func UnmarkLane(word uint64, j int, child uint64) uint64 {
	return word &^ ShiftToLane((OccLeft|CoalLeft)>>mod2(child), j)
}

// OccBuddyLane reports whether lane j carries the occupancy bit of the
// buddy of child (word-level IsOccBuddy).
func OccBuddyLane(word uint64, j int, child uint64) bool {
	return word&ShiftToLane(OccRight<<mod2(child), j) != 0
}

// CoalBuddyLane reports whether lane j carries the coalescing bit of the
// buddy of child (word-level IsCoalBuddy).
func CoalBuddyLane(word uint64, j int, child uint64) bool {
	return word&ShiftToLane(CoalRight<<mod2(child), j) != 0
}

// Field extracts the status of lane j from a packed word.
func Field(word uint64, j int) uint32 {
	return uint32(word>>(FieldBits*j)) & Mask
}

// WithField returns word with lane j replaced by val.
func WithField(word uint64, j int, val uint32) uint64 {
	shift := FieldBits * j
	return word&^(uint64(Mask)<<shift) | uint64(val&Mask)<<shift
}

// FieldMask returns the mask covering count consecutive lanes starting at
// lane j.
func FieldMask(j, count int) uint64 {
	return Fill(j, count, Mask)
}

// Fill returns count consecutive copies of val starting at lane j.
func Fill(j, count int, val uint32) uint64 {
	// count consecutive set bytes, starting at byte j.
	run := laneLSB >> (64 - FieldBits*count) << (FieldBits * j)
	return run * uint64(val&Mask)
}

// AnyBusy reports whether any of the count lanes starting at j has a Busy
// bit set, i.e. whether the covered node is not free.
func AnyBusy(word uint64, j, count int) bool {
	return word&Fill(j, count, Busy) != 0
}

// busyLanes returns the lane-occupancy bitmap of a word: the high bit of
// lane j is set iff lane j has at least one Busy bit. Masking with Busy
// leaves every lane ≤ 0x13 < 0x80, so adding 0x7F per lane carries into
// the lane's high bit exactly when the lane is non-zero and never across
// lanes — the bitmap is exact, with no borrow artifacts.
func busyLanes(word uint64) uint64 {
	m := word & busyAll
	return ((m + lane7F) | m) & laneMSB
}

// FirstFreeLane returns the lowest lane index j in [from, LanesPerWord)
// whose status byte has no Busy bit (pending coalescing bits do not
// disqualify a lane, matching IsFree), or LanesPerWord when every
// remaining lane is busy. It is the word-level form of the NBALLOC level
// probe: the classic free-byte trick (w - 0x0101…) & ^w & 0x8080… flags
// the first zero byte of the busy-masked word, and the first flag is
// exact even though borrow propagation can spuriously flag lanes above
// it — the scan only ever consumes the first.
func FirstFreeLane(word uint64, from int) int {
	m := word & busyAll
	// Lanes below the scan start must not surface: force them busy.
	m |= laneLSB & (1<<(FieldBits*from) - 1)
	z := (m - laneLSB) & ^m & laneMSB
	return bits.TrailingZeros64(z) / FieldBits // TrailingZeros64(0) = 64 -> 8
}

// FirstUnreservedLane returns the lowest lane index j in [from,
// LanesPerWord) whose Occ bit is clear, or LanesPerWord when every
// remaining lane is itself reserved. Partial occupancy (OccLeft/OccRight
// without Occ) does not count: such a lane's subtree may still hold free
// nodes. The level scan uses it to hop over a run of reserved ancestors
// in one step.
func FirstUnreservedLane(word uint64, from int) int {
	z := ^word & occAll &^ (1<<(FieldBits*from) - 1)
	return bits.TrailingZeros64(z) / FieldBits
}

// alignedMSB[k] holds the high bits of the lanes that can start an
// aligned run of 1<<k lanes: every lane for runs of 1, lanes 0/2/4/6
// for pairs, lanes 0/4 for quads, lane 0 for a whole-word run.
var alignedMSB = [4]uint64{
	laneMSB,
	0x0080008000800080,
	0x0000008000000080,
	0x0000000000000080,
}

// FirstFreeRun generalizes FirstFreeLane to nodes covering count
// consecutive lanes (interior nodes of a bunch word): it returns the
// lowest count-aligned lane index f in [from, LanesPerWord) such that
// lanes [f, f+count) are all Busy-free, or LanesPerWord when no such run
// remains. from must itself be count-aligned and count a power of two
// (the bunch layout guarantees both). The exact busy-lane bitmap is
// folded so each run start accumulates its whole run's occupancy, then
// the first clear aligned position is picked.
func FirstFreeRun(word uint64, from, count int) int {
	b := busyLanes(word)
	for s := 1; s < count; s <<= 1 {
		b |= b >> (FieldBits * s)
	}
	// Candidate positions: high bits of count-aligned lanes at or after
	// from.
	cand := alignedMSB[bits.TrailingZeros8(uint8(count))] &^ (1<<(FieldBits*from) - 1)
	z := cand &^ b
	return bits.TrailingZeros64(z) / FieldBits
}
