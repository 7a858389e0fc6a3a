package mem

import (
	"reflect"
	"runtime"
	"testing"
)

func TestParseIDList(t *testing.T) {
	cases := []struct {
		in   string
		want []int
		err  bool
	}{
		{"0", []int{0}, false},
		{"0\n", []int{0}, false},
		{"0-3", []int{0, 1, 2, 3}, false},
		{"0,2-3,8", []int{0, 2, 3, 8}, false},
		{" 1 , 4-5 ", []int{1, 4, 5}, false},
		{"", nil, false},
		{"3-1", nil, true},
		{"x", nil, true},
		{"0-", nil, true},
	}
	for _, c := range cases {
		got, err := parseIDList(c.in)
		if c.err {
			if err == nil {
				t.Errorf("parseIDList(%q): want error, got %v", c.in, got)
			}
			continue
		}
		if err != nil {
			t.Errorf("parseIDList(%q): %v", c.in, err)
			continue
		}
		if !reflect.DeepEqual(got, c.want) {
			t.Errorf("parseIDList(%q) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestNUMATopologyConsistent(t *testing.T) {
	nodes := NUMANodes()
	if len(nodes) == 0 {
		t.Fatal("NUMANodes returned no nodes")
	}
	seen := map[int]bool{}
	for _, n := range nodes {
		seen[n] = true
	}
	// Every cpu must map to an online node.
	for cpu := 0; cpu < 64; cpu++ {
		if n := NodeOfCPU(cpu); !seen[n] {
			t.Fatalf("NodeOfCPU(%d) = %d, not an online node %v", cpu, n, nodes)
		}
	}
}

// TestNodeMapFollowsCommits: every region places its windows — a plain
// region (no options) fills NodeMap on commit, and only for the windows
// it committed.
func TestNodeMapFollowsCommits(t *testing.T) {
	r, err := New(1<<16, 3)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Release()
	for _, n := range r.NodeMap() {
		if n != -1 {
			t.Fatalf("window placed before commit: %v", r.NodeMap())
		}
	}
	if err := r.Commit(1); err != nil {
		t.Fatal(err)
	}
	nm := r.NodeMap()
	if nm[0] != -1 || nm[2] != -1 {
		t.Fatalf("uncommitted windows placed: %v", nm)
	}
	if nm[1] < 0 {
		t.Fatalf("committed window unplaced: %v", nm)
	}
	want := NodeOfCPU(1 % maxInt(1, runtime.NumCPU()))
	if nm[1] != want {
		t.Fatalf("window 1 assigned node %d, want %d", nm[1], want)
	}
	// The physical placement assertion only holds where the syscalls are
	// real; the committed window was touched by Commit, so the page query
	// must answer and agree with the assignment on a bound window. On a
	// single-node machine no bind was issued but the answer is still the
	// only node.
	if NUMAAware() {
		got, ok := NodeOfAddr(r.Window(1))
		if !ok {
			t.Fatal("NodeOfAddr failed on a committed window")
		}
		if len(NUMANodes()) > 1 && got != nm[1] {
			t.Fatalf("page on node %d, policy assigned %d", got, nm[1])
		}
	}
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
