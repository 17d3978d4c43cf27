package kvstore_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"ufork/internal/apps/kvstore"
	"ufork/internal/core"
	"ufork/internal/kernel"
	"ufork/internal/sim"
)

// Golden Save output for seededStore: the dump's SHA-256 and size, and
// the virtual time Save takes. A host-side change to the serializer must
// leave all three as they are.
const (
	goldenDumpSHA256 = "cc75b5bc04078d38c36337819ed7ed16ef45a63efaf146095cf1155b651c5f62"
	goldenDumpBytes  = 494570
	goldenSaveVirtNS = sim.Time(1813620)
)

// seededStore fills s with 120 keys whose values range from 1 byte to
// 80 KiB, so the dump spans several 64 KiB write chunks and one value
// is larger than a chunk.
func seededStore(t *testing.T, s *kvstore.Store) map[string][]byte {
	t.Helper()
	rng := rand.New(rand.NewSource(14))
	vals := map[string][]byte{}
	for i := 0; i < 120; i++ {
		n := 1 + rng.Intn(4096)
		if i%40 == 7 {
			n = 80 * 1024
		}
		val := make([]byte, n)
		rng.Read(val)
		key := fmt.Sprintf("key:%03d", i)
		vals[key] = val
		if err := s.Set(key, val); err != nil {
			t.Fatal(err)
		}
	}
	return vals
}

func TestSaveGolden(t *testing.T) {
	withStore(t, core.CopyOnPointerAccess, func(k *kernel.Kernel, p *kernel.Proc, s *kvstore.Store) {
		vals := seededStore(t, s)
		t0 := p.Now()
		if err := s.Save("/dump.rdb"); err != nil {
			t.Fatalf("save: %v", err)
		}
		virt := p.Now() - t0
		ino, ok := k.VFS().Lookup("/dump.rdb")
		if !ok {
			t.Fatal("dump file missing")
		}
		sum := sha256.Sum256(ino.Data)
		t.Logf("dump %d bytes, sha256 %x, save %d ns virtual", len(ino.Data), sum, virt)
		if got := hex.EncodeToString(sum[:]); got != goldenDumpSHA256 || len(ino.Data) != goldenDumpBytes {
			t.Errorf("dump = %d bytes sha256 %s, want %d bytes %s", len(ino.Data), got, goldenDumpBytes, goldenDumpSHA256)
		}
		if virt != goldenSaveVirtNS {
			t.Errorf("save took %d ns virtual, want %d", virt, goldenSaveVirtNS)
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

// dumpOf builds a dump of the given records, in order, the way Save lays
// them out.
func dumpOf(recs ...[2]string) []byte {
	b := binary.LittleEndian.AppendUint64([]byte("KVD1"), uint64(len(recs)))
	for _, r := range recs {
		b = binary.LittleEndian.AppendUint64(b, uint64(len(r[0])))
		b = binary.LittleEndian.AppendUint64(b, uint64(len(r[1])))
		b = append(append(b, r[0]...), r[1]...)
	}
	return b
}

// TestLoadDumpAppendKeepsNextRecord: LoadDump's values alias the dump,
// but appending to one must never write into the record after it.
func TestLoadDumpAppendKeepsNextRecord(t *testing.T) {
	data := dumpOf([2]string{"a", "first"}, [2]string{"b", "second"}, [2]string{"c", "third"})
	orig := bytes.Clone(data)
	got, err := kvstore.LoadDump(data)
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"a", "b", "c"} {
		got[key] = append(got[key], "XXXXXXXX"...)
	}
	if !bytes.Equal(data, orig) {
		t.Fatalf("appending to a value rewrote the dump:\n got %q\nwant %q", data, orig)
	}
	if string(got["a"]) != "firstXXXXXXXX" || string(got["b"]) != "secondXXXXXXXX" {
		t.Fatalf("appended values = %q, %q", got["a"], got["b"])
	}
}

// TestLoadDumpTruncated: every strict prefix of a dump is corrupt.
func TestLoadDumpTruncated(t *testing.T) {
	data := dumpOf([2]string{"alpha", "one"}, [2]string{"beta", "two"})
	if _, err := kvstore.LoadDump(data); err != nil {
		t.Fatalf("whole dump: %v", err)
	}
	for n := 0; n < len(data); n++ {
		if _, err := kvstore.LoadDump(data[:n]); !errors.Is(err, kvstore.ErrCorrupt) {
			t.Fatalf("dump cut to %d of %d bytes: err = %v, want ErrCorrupt", n, len(data), err)
		}
	}
}
