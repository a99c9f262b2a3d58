package kernel

import (
	"testing"

	"github.com/hermes-sim/hermes/internal/simtime"
)

func TestReadFileColdThenWarm(t *testing.T) {
	k, s := newTestKernel(t, smallConfig())
	p := k.CreateProcess("svc")
	f := k.CreateFile("data.sst", 1000, p.PID)

	cold := k.ReadFile(s.Now(), f, 1000)
	if cold < simtime.Millisecond {
		t.Fatalf("cold read cost %v, want HDD-scale", cold)
	}
	if f.CachedPages() != 1000 {
		t.Fatalf("cached = %d, want 1000", f.CachedPages())
	}
	warm := k.ReadFile(s.Now(), f, 1000)
	if warm != 0 {
		t.Fatalf("warm read cost %v, want 0 (fully cached)", warm)
	}
	k.CheckInvariants()
}

func TestReadPromotesToActiveFile(t *testing.T) {
	k, s := newTestKernel(t, smallConfig())
	p := k.CreateProcess("svc")
	f := k.CreateFile("hot.dat", 500, p.PID)
	k.ReadFile(s.Now(), f, 500)
	if k.lru.inactiveFile.pages != 500 {
		t.Fatalf("first read must land on inactive_file, got %d there", k.lru.inactiveFile.pages)
	}
	k.ReadFile(s.Now(), f, 500)
	if k.lru.activeFile.pages != 500 {
		t.Fatalf("second read must promote to active_file, got %d there", k.lru.activeFile.pages)
	}
	k.CheckInvariants()
}

func TestWriteFileDirtiesCache(t *testing.T) {
	k, s := newTestKernel(t, smallConfig())
	p := k.CreateProcess("db")
	f := k.CreateFile("wal.log", 0, p.PID)
	cost := k.WriteFile(s.Now(), f, 100, true)
	if cost <= 0 {
		t.Fatal("write must cost page allocation")
	}
	if f.SizePages() != 100 || f.CachedPages() != 100 || f.DirtyPages() != 100 {
		t.Fatalf("after write: size=%d cached=%d dirty=%d", f.SizePages(), f.CachedPages(), f.DirtyPages())
	}
	// Fsync writes back at HDD cost and cleans.
	sc := k.Fsync(s.Now(), f)
	if sc < simtime.Millisecond {
		t.Fatalf("fsync of 100 dirty pages cost %v, want HDD-scale", sc)
	}
	if f.DirtyPages() != 0 {
		t.Fatal("fsync must clean the file")
	}
	k.CheckInvariants()
}

func TestFadviseDontNeedReleasesCache(t *testing.T) {
	k, s := newTestKernel(t, smallConfig())
	p := k.CreateProcess("batch")
	f := k.CreateFile("input.dat", 2000, p.PID)
	k.ReadFile(s.Now(), f, 2000)
	free0 := k.FreePages()
	released, cost := k.FadviseDontNeed(s.Now(), f)
	if released != 2000 {
		t.Fatalf("released = %d, want 2000", released)
	}
	if k.FreePages() != free0+2000 {
		t.Fatalf("free = %d, want %d", k.FreePages(), free0+2000)
	}
	// Clean drop needs no I/O: cost stays in the microsecond range.
	if cost > simtime.Millisecond {
		t.Fatalf("clean fadvise cost %v, want < 1ms", cost)
	}
	if k.Stats().FadvisedPages != 2000 {
		t.Fatalf("fadvised counter = %d", k.Stats().FadvisedPages)
	}
	k.CheckInvariants()
}

func TestFadviseWritesBackDirtyPages(t *testing.T) {
	k, s := newTestKernel(t, smallConfig())
	p := k.CreateProcess("batch")
	f := k.CreateFile("out.dat", 0, p.PID)
	k.WriteFile(s.Now(), f, 200, true)
	_, cost := k.FadviseDontNeed(s.Now(), f)
	if cost < simtime.Millisecond {
		t.Fatalf("dirty fadvise cost %v, want HDD writeback", cost)
	}
	if f.DirtyPages() != 0 || f.CachedPages() != 0 {
		t.Fatal("fadvise must clean and drop")
	}
	k.CheckInvariants()
}

func TestDeleteFileDropsCacheWithoutWriteback(t *testing.T) {
	k, s := newTestKernel(t, smallConfig())
	p := k.CreateProcess("db")
	f := k.CreateFile("tmp.sst", 0, p.PID)
	k.WriteFile(s.Now(), f, 300, true)
	free0 := k.FreePages()
	k.DeleteFile(f)
	if k.FreePages() != free0+300 {
		t.Fatal("delete must free cached pages")
	}
	if k.File("tmp.sst") != nil {
		t.Fatal("file still visible after delete")
	}
	k.CheckInvariants()
}

func TestDuplicateFilePanics(t *testing.T) {
	k, _ := newTestKernel(t, smallConfig())
	p := k.CreateProcess("x")
	k.CreateFile("dup", 1, p.PID)
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate file must panic")
		}
	}()
	k.CreateFile("dup", 1, p.PID)
}

func TestPartialReadCachesPartially(t *testing.T) {
	k, s := newTestKernel(t, smallConfig())
	p := k.CreateProcess("svc")
	f := k.CreateFile("seg.dat", 1000, p.PID)
	k.ReadFile(s.Now(), f, 400)
	if f.CachedPages() != 400 {
		t.Fatalf("cached = %d, want 400", f.CachedPages())
	}
	k.CheckInvariants()
}

func TestReadBeyondSizeClamps(t *testing.T) {
	k, s := newTestKernel(t, smallConfig())
	p := k.CreateProcess("svc")
	f := k.CreateFile("small.dat", 10, p.PID)
	k.ReadFile(s.Now(), f, 100)
	if f.CachedPages() != 10 {
		t.Fatalf("cached = %d, want 10", f.CachedPages())
	}
}
