package metadata

import (
	"testing"

	"quasaq/internal/media"
	"quasaq/internal/qos"
)

func rep(video media.VideoID, site string) *Replica {
	return &Replica{
		Video:   video,
		Site:    site,
		Variant: media.NewVariant(media.LadderQuality(media.LinkT1, 24)),
	}
}

func TestStoreAddAndLocal(t *testing.T) {
	s := NewStore("A")
	if err := s.Add(rep(1, "A")); err != nil {
		t.Fatal(err)
	}
	if err := s.Add(rep(1, "A")); err != nil {
		t.Fatal(err)
	}
	if err := s.Add(rep(2, "A")); err != nil {
		t.Fatal(err)
	}
	local := s.Local(1)
	if len(local) != 2 {
		t.Fatalf("local replicas = %d", len(local))
	}
	if local[0].Seq != 1 || local[1].Seq != 2 {
		t.Fatalf("seq assignment wrong: %d %d", local[0].Seq, local[1].Seq)
	}
	if n := len(local) + len(s.Local(2)); n != 3 {
		t.Fatalf("count = %d", n)
	}
	if got := s.Local(9); len(got) != 0 {
		t.Fatal("missing video returned replicas")
	}
}

func TestStoreRejectsForeignReplica(t *testing.T) {
	s := NewStore("A")
	if err := s.Add(rep(1, "B")); err == nil {
		t.Fatal("foreign replica accepted")
	}
}

func newDirectory(t *testing.T) *Directory {
	t.Helper()
	d := NewDirectory()
	for _, site := range []string{"A", "B", "C"} {
		s := NewStore(site)
		if err := d.AddStore(s); err != nil {
			t.Fatal(err)
		}
		s.Add(rep(1, site))
		s.Add(rep(1, site))
	}
	return d
}

func TestDirectoryLookupAllSites(t *testing.T) {
	d := newDirectory(t)
	got := d.Lookup("A", 1)
	if len(got) != 6 {
		t.Fatalf("lookup found %d replicas, want 6", len(got))
	}
	// Local replicas come first.
	if got[0].Site != "A" || got[1].Site != "A" {
		t.Fatalf("local-first ordering broken: %v %v", got[0].Site, got[1].Site)
	}
	// Remote portion deterministic.
	if got[2].Site != "B" || got[4].Site != "C" {
		t.Fatalf("remote ordering: %v %v", got[2].Site, got[4].Site)
	}
}

func TestDirectoryCache(t *testing.T) {
	d := newDirectory(t)
	d.Lookup("A", 1)
	remote1, hits1 := d.CacheStats()
	if remote1 != 2 || hits1 != 0 {
		t.Fatalf("first lookup: remote=%d hits=%d, want 2/0", remote1, hits1)
	}
	d.Lookup("A", 1)
	remote2, hits2 := d.CacheStats()
	if remote2 != 2 || hits2 != 1 {
		t.Fatalf("second lookup: remote=%d hits=%d, want 2/1", remote2, hits2)
	}
	// Another site has its own cache.
	d.Lookup("B", 1)
	remote3, _ := d.CacheStats()
	if remote3 != 4 {
		t.Fatalf("remote after B's lookup = %d, want 4", remote3)
	}
}

func TestDirectoryInvalidate(t *testing.T) {
	d := newDirectory(t)
	d.Lookup("A", 1)
	d.Invalidate(1)
	d.Lookup("A", 1)
	remote, hits := d.CacheStats()
	if remote != 4 || hits != 0 {
		t.Fatalf("after invalidate: remote=%d hits=%d, want 4/0", remote, hits)
	}
}

func TestDirectoryNewReplicaVisibleAfterInvalidate(t *testing.T) {
	d := newDirectory(t)
	d.Lookup("A", 1) // warm the cache
	sb, _ := d.Store("B")
	sb.Add(rep(1, "B"))
	if got := d.Lookup("A", 1); len(got) != 6 {
		t.Fatalf("stale cache expected 6, got %d", len(got))
	}
	d.Invalidate(1)
	if got := d.Lookup("A", 1); len(got) != 7 {
		t.Fatalf("after invalidate want 7, got %d", len(got))
	}
}

func TestDirectoryDuplicateStore(t *testing.T) {
	d := NewDirectory()
	if err := d.AddStore(NewStore("A")); err != nil {
		t.Fatal(err)
	}
	if err := d.AddStore(NewStore("A")); err == nil {
		t.Fatal("duplicate store accepted")
	}
	if _, err := d.Store("Z"); err == nil {
		t.Fatal("missing store lookup succeeded")
	}
}

func TestDirectorySites(t *testing.T) {
	d := newDirectory(t)
	sites := d.Sites()
	if len(sites) != 3 || sites[0] != "A" || sites[2] != "C" {
		t.Fatalf("sites = %v", sites)
	}
}

func TestReplicaID(t *testing.T) {
	r := rep(3, "B")
	r.Seq = 2
	if r.ID() != "v003@B#2" {
		t.Fatalf("id = %q", r.ID())
	}
	if (qos.ResourceVector{}) != r.Profile {
		t.Fatal("unset profile should be zero")
	}
}
