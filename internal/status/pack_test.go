package status

import (
	"testing"
	"testing/quick"
)

func TestFieldRoundtrip(t *testing.T) {
	var w uint64
	for j := 0; j < 8; j++ {
		w = WithField(w, j, uint32(j)+1)
	}
	for j := 0; j < 8; j++ {
		if got := Field(w, j); got != uint32(j)+1 {
			t.Fatalf("Field(%d) = %#x, want %#x", j, got, j+1)
		}
	}
	// One byte per lane: the upper three bits of every byte stay clear.
	if w&^statMask != 0 {
		t.Fatalf("packing leaked outside the status bits: %#x", w)
	}
}

func TestFieldMaskAndFill(t *testing.T) {
	if FieldMask(0, 8) != statMask {
		t.Fatalf("FieldMask(0,8) = %#x", FieldMask(0, 8))
	}
	if Fill(2, 2, Busy) != uint64(Busy)<<16|uint64(Busy)<<24 {
		t.Fatalf("Fill(2,2,Busy) = %#x", Fill(2, 2, Busy))
	}
}

func TestAnyBusy(t *testing.T) {
	w := WithField(0, 3, CoalLeft) // coalescing only: not busy
	if AnyBusy(w, 0, 8) {
		t.Error("coal-only field reported busy")
	}
	w = WithField(w, 5, Occ)
	if !AnyBusy(w, 4, 4) {
		t.Error("busy field in range not detected")
	}
	if AnyBusy(w, 0, 4) {
		t.Error("busy field outside range detected")
	}
}

// Property: WithField changes exactly the targeted field.
func TestQuickWithFieldIsolation(t *testing.T) {
	f := func(w uint64, j uint8, val uint32) bool {
		w &= statMask
		jj := int(j % 8)
		out := WithField(w, jj, val)
		if Field(out, jj) != val&Mask {
			return false
		}
		for k := 0; k < 8; k++ {
			if k != jj && Field(out, k) != Field(w, k) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: AnyBusy(w, j, c) is exactly the OR of per-field busy tests.
func TestQuickAnyBusyDefinition(t *testing.T) {
	f := func(w uint64, j, c uint8) bool {
		w &= statMask
		jj := int(j % 8)
		cc := int(c%8) + 1
		if jj+cc > 8 {
			cc = 8 - jj
		}
		want := false
		for k := jj; k < jj+cc; k++ {
			if Field(w, k)&Busy != 0 {
				want = true
			}
		}
		return AnyBusy(w, jj, cc) == want
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// firstFreeLaneRef is the per-lane reference the SWAR form must match.
func firstFreeLaneRef(w uint64, from int) int {
	for j := from; j < LanesPerWord; j++ {
		if Field(w, j)&Busy == 0 {
			return j
		}
	}
	return LanesPerWord
}

func TestFirstFreeLane(t *testing.T) {
	cases := []struct {
		w    uint64
		from int
		want int
	}{
		{0, 0, 0},
		{0, 5, 5},
		{0, 8, 8},
		{Fill(0, 8, Busy), 0, 8},
		{Fill(0, 3, Busy), 0, 3},
		{Fill(0, 3, Busy), 4, 4},
		{WithField(0, 0, Occ), 0, 1},
		// Coalescing-only lanes count as free, exactly like IsFree.
		{Fill(0, 8, CoalLeft), 0, 0},
		{WithField(Fill(0, 8, Busy), 6, CoalRight), 0, 6},
	}
	for _, c := range cases {
		if got := FirstFreeLane(c.w, c.from); got != c.want {
			t.Errorf("FirstFreeLane(%#x, %d) = %d, want %d", c.w, c.from, got, c.want)
		}
	}
}

// Property: the SWAR first-free-lane scan agrees with the per-lane
// reference on every status word and scan start.
func TestQuickFirstFreeLane(t *testing.T) {
	f := func(w uint64, from uint8) bool {
		w &= statMask
		ff := int(from % 9) // 0..8 inclusive: the one-past-the-end start is legal
		return FirstFreeLane(w, ff) == firstFreeLaneRef(w, ff)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

// firstFreeRunRef is the per-run reference for FirstFreeRun.
func firstFreeRunRef(w uint64, from, count int) int {
	for f := from; f < LanesPerWord; f += count {
		if !AnyBusy(w, f, count) {
			return f
		}
	}
	return LanesPerWord
}

func TestQuickFirstFreeRun(t *testing.T) {
	f := func(w uint64, from, countSel uint8) bool {
		w &= statMask
		count := 1 << (countSel % 4) // 1, 2, 4, 8
		ff := (int(from) % (LanesPerWord/count + 1)) * count
		return FirstFreeRun(w, ff, count) == firstFreeRunRef(w, ff, count)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

// firstUnreservedLaneRef is the per-lane reference for FirstUnreservedLane.
func firstUnreservedLaneRef(w uint64, from int) int {
	for j := from; j < LanesPerWord; j++ {
		if !IsOcc(Field(w, j)) {
			return j
		}
	}
	return LanesPerWord
}

func TestFirstUnreservedLane(t *testing.T) {
	cases := []struct {
		w    uint64
		from int
		want int
	}{
		{0, 0, 0},
		{0, 8, 8},
		{Fill(0, 8, Busy), 0, 8},
		{Fill(0, 8, Busy), 8, 8},
		{Fill(0, 4, Busy), 1, 4},
		// Partially occupied lanes are not reserved: never skipped.
		{Fill(0, 8, OccLeft), 0, 0},
		{Fill(0, 8, OccLeft|OccRight), 3, 3},
		{WithField(Fill(0, 3, Occ), 3, OccRight|CoalLeft), 0, 3},
		// Narrow top levels use only the low lanes of word 0; the unused
		// lanes read clear, so a fully reserved narrow level ends on its
		// width (one past its last node).
		{Fill(0, 1, Busy), 1, 1},
		{Fill(0, 2, Busy), 1, 2},
		{Fill(0, 4, Busy), 2, 4},
	}
	for _, c := range cases {
		if got := FirstUnreservedLane(c.w, c.from); got != c.want {
			t.Errorf("FirstUnreservedLane(%#x, %d) = %d, want %d", c.w, c.from, got, c.want)
		}
	}
}

// Property: FirstUnreservedLane agrees with the per-lane reference on
// full words and on narrow-level words (lanes at or past the width
// clear), for every start including one past the end.
func TestQuickFirstUnreservedLane(t *testing.T) {
	f := func(w uint64, from, widthSel uint8) bool {
		w &= statMask
		if width := 1 << (widthSel % 4); width < LanesPerWord { // 1, 2, 4 or a full word
			w &= FieldMask(0, width)
		}
		ff := int(from % 9)
		return FirstUnreservedLane(w, ff) == firstUnreservedLaneRef(w, ff)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 4000}); err != nil {
		t.Error(err)
	}
}
