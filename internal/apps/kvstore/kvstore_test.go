package kvstore_test

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"ufork/internal/alloc"
	"ufork/internal/apps/kvstore"
	"ufork/internal/cap"
	"ufork/internal/core"
	"ufork/internal/kernel"
	"ufork/internal/model"
)

// redisSpec sizes a μprocess image for a small test database.
func redisSpec(heapPages int) kernel.ProgramSpec {
	s := kernel.HelloWorldSpec()
	s.Name = "kvstore"
	s.HeapPages = heapPages
	s.AllocMetaPages = 64
	return s
}

func withStore(t *testing.T, mode core.CopyMode, fn func(k *kernel.Kernel, p *kernel.Proc, s *kvstore.Store)) {
	t.Helper()
	k := kernel.New(kernel.Config{
		Machine:   model.UFork(2),
		Engine:    core.New(mode),
		Isolation: kernel.IsolationFull,
		Frames:    1 << 16,
	})
	if _, err := k.Spawn(redisSpec(4096), 0, func(p *kernel.Proc) {
		a := alloc.Attach(p)
		if err := a.Init(); err != nil {
			t.Errorf("alloc init: %v", err)
			return
		}
		s, err := kvstore.Init(p, a, 256)
		if err != nil {
			t.Errorf("store init: %v", err)
			return
		}
		fn(k, p, s)
	}); err != nil {
		t.Fatal(err)
	}
	k.Run()
}

func TestSetGetDelete(t *testing.T) {
	withStore(t, core.CopyOnPointerAccess, func(k *kernel.Kernel, p *kernel.Proc, s *kvstore.Store) {
		if err := s.Set("alpha", []byte("one")); err != nil {
			t.Fatalf("set: %v", err)
		}
		if err := s.Set("beta", []byte("two")); err != nil {
			t.Fatalf("set: %v", err)
		}
		v, err := s.Get("alpha")
		if err != nil || string(v) != "one" {
			t.Fatalf("get alpha = %q, %v", v, err)
		}
		// Replace.
		if err := s.Set("alpha", []byte("uno!")); err != nil {
			t.Fatalf("replace: %v", err)
		}
		v, err = s.Get("alpha")
		if err != nil || string(v) != "uno!" {
			t.Fatalf("get alpha after replace = %q, %v", v, err)
		}
		n, err := s.Count()
		if err != nil || n != 2 {
			t.Fatalf("count = %d, %v", n, err)
		}
		if err := s.Delete("alpha"); err != nil {
			t.Fatalf("delete: %v", err)
		}
		if _, err := s.Get("alpha"); !errors.Is(err, kvstore.ErrNotFound) {
			t.Fatalf("get deleted: %v", err)
		}
		if _, err := s.Get("gamma"); !errors.Is(err, kvstore.ErrNotFound) {
			t.Fatalf("get missing: %v", err)
		}
		if err := s.Delete("gamma"); !errors.Is(err, kvstore.ErrNotFound) {
			t.Fatalf("delete missing: %v", err)
		}
		n, _ = s.Count()
		if n != 1 {
			t.Fatalf("count after delete = %d", n)
		}
	})
}

func TestManyKeysCollisions(t *testing.T) {
	withStore(t, core.CopyOnPointerAccess, func(k *kernel.Kernel, p *kernel.Proc, s *kvstore.Store) {
		// 256 buckets, 600 keys: plenty of chaining.
		for i := 0; i < 600; i++ {
			if err := s.Set(fmt.Sprintf("key:%04d", i), []byte(fmt.Sprintf("val-%d", i))); err != nil {
				t.Fatalf("set %d: %v", i, err)
			}
		}
		for i := 0; i < 600; i++ {
			v, err := s.Get(fmt.Sprintf("key:%04d", i))
			if err != nil {
				t.Fatalf("get %d: %v", i, err)
			}
			if string(v) != fmt.Sprintf("val-%d", i) {
				t.Fatalf("key %d = %q", i, v)
			}
		}
		n, _ := s.Count()
		if n != 600 {
			t.Fatalf("count = %d", n)
		}
	})
}

func TestForEachVisitsAll(t *testing.T) {
	withStore(t, core.CopyOnPointerAccess, func(k *kernel.Kernel, p *kernel.Proc, s *kvstore.Store) {
		want := map[string]bool{}
		for i := 0; i < 50; i++ {
			key := fmt.Sprintf("k%d", i)
			want[key] = true
			if err := s.Set(key, bytes.Repeat([]byte{byte(i)}, 100)); err != nil {
				t.Fatal(err)
			}
		}
		seen := map[string]bool{}
		err := s.ForEach(func(key []byte, _ capability) error {
			seen[string(key)] = true
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if len(seen) != len(want) {
			t.Fatalf("visited %d keys, want %d", len(seen), len(want))
		}
	})
}

func TestSaveAndParse(t *testing.T) {
	withStore(t, core.CopyOnPointerAccess, func(k *kernel.Kernel, p *kernel.Proc, s *kvstore.Store) {
		vals := map[string][]byte{}
		for i := 0; i < 40; i++ {
			key := fmt.Sprintf("key-%d", i)
			val := bytes.Repeat([]byte{byte(i + 1)}, 300+i)
			vals[key] = val
			if err := s.Set(key, val); err != nil {
				t.Fatal(err)
			}
		}
		if err := s.Save("/dump.rdb"); err != nil {
			t.Fatalf("save: %v", err)
		}
		ino, ok := k.VFS().Lookup("/dump.rdb")
		if !ok {
			t.Fatal("dump file missing")
		}
		got, err := kvstore.LoadDump(ino.Data)
		if err != nil {
			t.Fatalf("parse dump: %v", err)
		}
		if len(got) != len(vals) {
			t.Fatalf("dump has %d keys, want %d", len(got), len(vals))
		}
		for key, val := range vals {
			if !bytes.Equal(got[key], val) {
				t.Fatalf("dump[%s] mismatch", key)
			}
		}
	})
}

// TestBGSaveSnapshotConsistency is the Redis headline property: the dump
// reflects the database at fork time even though the parent keeps
// mutating concurrently.
func TestBGSaveSnapshotConsistency(t *testing.T) {
	for _, mode := range []core.CopyMode{core.CopyOnPointerAccess, core.CopyOnAccess, core.CopyFull} {
		t.Run(mode.String(), func(t *testing.T) {
			withStore(t, mode, func(k *kernel.Kernel, p *kernel.Proc, s *kvstore.Store) {
				for i := 0; i < 30; i++ {
					if err := s.Set(fmt.Sprintf("k%d", i), []byte(fmt.Sprintf("orig-%d", i))); err != nil {
						t.Fatal(err)
					}
				}
				if _, err := s.BGSave("/bg.rdb"); err != nil {
					t.Fatalf("bgsave: %v", err)
				}
				// Parent mutates immediately after fork: overwrites and new keys.
				for i := 0; i < 30; i++ {
					if err := s.Set(fmt.Sprintf("k%d", i), []byte("MUTATED")); err != nil {
						t.Fatal(err)
					}
				}
				for i := 30; i < 40; i++ {
					if err := s.Set(fmt.Sprintf("k%d", i), []byte("NEW")); err != nil {
						t.Fatal(err)
					}
				}
				if err := s.Reap(); err != nil {
					t.Fatalf("reap: %v", err)
				}
				ino, ok := k.VFS().Lookup("/bg.rdb")
				if !ok {
					t.Fatal("dump missing")
				}
				got, err := kvstore.LoadDump(ino.Data)
				if err != nil {
					t.Fatalf("parse: %v", err)
				}
				if len(got) != 30 {
					t.Fatalf("snapshot has %d keys, want 30 (fork-time state)", len(got))
				}
				for i := 0; i < 30; i++ {
					if string(got[fmt.Sprintf("k%d", i)]) != fmt.Sprintf("orig-%d", i) {
						t.Fatalf("snapshot k%d = %q: parent mutation leaked", i, got[fmt.Sprintf("k%d", i)])
					}
				}
				// The live store has the mutations.
				v, err := s.Get("k0")
				if err != nil || string(v) != "MUTATED" {
					t.Fatalf("live k0 = %q, %v", v, err)
				}
			})
		})
	}
}

// TestCoPAChildMemoryFarBelowCoA reproduces the Fig. 5 mechanism at test
// scale: the snapshot child under CoPA copies only pointer-bearing pages,
// under CoA every page it reads.
func TestCoPAChildMemoryFarBelowCoA(t *testing.T) {
	childPrivate := func(mode core.CopyMode) (pages int) {
		withStore(t, mode, func(k *kernel.Kernel, p *kernel.Proc, s *kvstore.Store) {
			// 64 keys × 16 KiB values = 1 MiB of value pages.
			val := bytes.Repeat([]byte{0xab}, 16*1024)
			for i := 0; i < 64; i++ {
				if err := s.Set(fmt.Sprintf("key%d", i), val); err != nil {
					t.Fatal(err)
				}
			}
			_, err := k.Fork(p, func(c *kernel.Proc) {
				cs, err := kvstore.Attach(c)
				if err != nil {
					t.Errorf("attach: %v", err)
					return
				}
				if err := cs.Save("/m.rdb"); err != nil {
					t.Errorf("save: %v", err)
					return
				}
				r, _ := k.SmapsOf(c.PID)
				pages = r.Total.PrivatePages
			})
			if err != nil {
				t.Fatal(err)
			}
			if _, _, err := k.Wait(p); err != nil {
				t.Fatal(err)
			}
		})
		return pages
	}
	copa := childPrivate(core.CopyOnPointerAccess)
	coa := childPrivate(core.CopyOnAccess)
	if copa*3 > coa {
		t.Fatalf("CoPA child private pages (%d) should be far below CoA (%d)", copa, coa)
	}
}

// capability aliases the capability type for the ForEach callback.
type capability = cap.Capability
