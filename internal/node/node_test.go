package node

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestIDCompare(t *testing.T) {
	cases := []struct {
		a, b ID
		want int
	}{
		{ID{1, 0}, ID{2, 0}, -1},
		{ID{2, 0}, ID{1, 0}, 1},
		{ID{1, 1}, ID{1, 2}, -1},
		{ID{1, 2}, ID{1, 1}, 1},
		{ID{3, 3}, ID{3, 3}, 0},
	}
	for _, c := range cases {
		if got := c.a.Compare(c.b); got != c.want {
			t.Errorf("Compare(%v, %v) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

func TestIDCompareProperties(t *testing.T) {
	antisym := func(a, b ID) bool {
		return a.Compare(b) == -b.Compare(a)
	}
	if err := quick.Check(antisym, nil); err != nil {
		t.Errorf("antisymmetry violated: %v", err)
	}
	reflexive := func(a ID) bool { return a.Compare(a) == 0 }
	if err := quick.Check(reflexive, nil); err != nil {
		t.Errorf("reflexivity violated: %v", err)
	}
}

func TestNewIDUniqueness(t *testing.T) {
	SeedIDGenerator(42)
	seen := make(map[ID]bool)
	for i := 0; i < 10000; i++ {
		id := NewID()
		if seen[id] {
			t.Fatalf("duplicate ID generated: %v", id)
		}
		seen[id] = true
	}
}

func TestSeedIDGeneratorDeterminism(t *testing.T) {
	SeedIDGenerator(7)
	a1, a2 := NewID(), NewID()
	SeedIDGenerator(7)
	b1, b2 := NewID(), NewID()
	if a1 != b1 || a2 != b2 {
		t.Errorf("reseeding did not reproduce the same IDs: %v,%v vs %v,%v", a1, a2, b1, b2)
	}
}

func TestIDIsZero(t *testing.T) {
	if !(ID{}).IsZero() {
		t.Error("zero ID should report IsZero")
	}
	if (ID{1, 0}).IsZero() {
		t.Error("non-zero ID should not report IsZero")
	}
}

func TestEndpointEqual(t *testing.T) {
	id := ID{5, 6}
	a := Endpoint{Addr: "10.0.0.1:80", ID: id}
	b := Endpoint{Addr: "10.0.0.1:80", ID: id, Metadata: map[string]string{"role": "x"}}
	if !a.Equal(b) {
		t.Error("endpoints differing only in metadata should be equal")
	}
	c := Endpoint{Addr: "10.0.0.1:80", ID: ID{5, 7}}
	if a.Equal(c) {
		t.Error("endpoints with different IDs should not be equal")
	}
	d := Endpoint{Addr: "10.0.0.2:80", ID: id}
	if a.Equal(d) {
		t.Error("endpoints with different addresses should not be equal")
	}
}

func TestWithMetadataCopies(t *testing.T) {
	md := map[string]string{"role": "backend"}
	e := NewEndpoint("a:1").WithMetadata(md)
	md["role"] = "frontend"
	if e.Metadata["role"] != "backend" {
		t.Error("WithMetadata must copy the map, not alias it")
	}
}

func TestNewIDFromRandDeterminism(t *testing.T) {
	r1 := rand.New(rand.NewSource(99))
	r2 := rand.New(rand.NewSource(99))
	for i := 0; i < 100; i++ {
		if NewIDFromRand(r1) != NewIDFromRand(r2) {
			t.Fatal("NewIDFromRand should be deterministic for equal sources")
		}
	}
}

func TestSortAddrs(t *testing.T) {
	addrs := []Addr{"c:1", "a:1", "b:1"}
	SortAddrs(addrs)
	if addrs[0] != "a:1" || addrs[1] != "b:1" || addrs[2] != "c:1" {
		t.Errorf("SortAddrs produced %v", addrs)
	}
}

func TestAddrList(t *testing.T) {
	if got := AddrList([]Addr{"a:1", "b:2"}); got != "a:1,b:2" {
		t.Errorf("AddrList = %q", got)
	}
	if got := AddrList(nil); got != "" {
		t.Errorf("AddrList(nil) = %q", got)
	}
}

func TestEndpointString(t *testing.T) {
	e := Endpoint{Addr: "h:1", ID: ID{0xa, 0xb}}
	want := "h:1/000000000000000a-000000000000000b"
	if e.String() != want {
		t.Errorf("String() = %q, want %q", e.String(), want)
	}
}

// TestIDStringGolden pins the ID text format: logs, paxos.Key and the
// classical path's tie-break order all depend on it byte for byte.
func TestIDStringGolden(t *testing.T) {
	cases := []struct {
		id   ID
		want string
	}{
		{ID{}, "0000000000000000-0000000000000000"},
		{ID{0xa, 0xb}, "000000000000000a-000000000000000b"},
		{ID{0x0123456789abcdef, 0xfedcba9876543210}, "0123456789abcdef-fedcba9876543210"},
		{ID{^uint64(0), 1 << 63}, "ffffffffffffffff-8000000000000000"},
	}
	for _, c := range cases {
		if got := c.id.String(); got != c.want {
			t.Errorf("ID%v.String() = %q, want %q", [2]uint64{c.id.High, c.id.Low}, got, c.want)
		}
	}
	r := rand.New(rand.NewSource(7))
	for i := 0; i < 1000; i++ {
		id := NewIDFromRand(r)
		if got, want := id.String(), fmt.Sprintf("%016x-%016x", id.High, id.Low); got != want {
			t.Fatalf("String() = %q, want %q", got, want)
		}
		if got := string(id.Append([]byte("x|"))); got != "x|"+id.String() {
			t.Fatalf("Append = %q, want %q", got, "x|"+id.String())
		}
	}
}
