package kernel_test

import (
	"bytes"
	"runtime"
	"testing"

	"ufork/internal/kernel"
	"ufork/internal/sim"
)

// vfsStep is one ram-disk operation on the file under test: an Open with
// create (which truncates an existing file), a Write at the current
// offset, or an Lseek.
type vfsStep struct {
	open   bool
	write  string
	seek   bool
	off    int64
	whence int
}

func wr(s string) vfsStep                { return vfsStep{write: s} }
func seek(off int64, whence int) vfsStep { return vfsStep{seek: true, off: off, whence: whence} }

var reopen = vfsStep{open: true}

// TestRamDiskWriteSemantics drives Write/Lseek/Open(create)/Stat through
// the cases a growable file has to get right, and checks the file's
// bytes, its SeekEnd and Stat sizes, and that every write's virtual
// charge equals that of a same-length write to an empty file.
func TestRamDiskWriteSemantics(t *testing.T) {
	cases := []struct {
		name  string
		steps []vfsStep
		want  string
	}{
		{"append at EOF", []vfsStep{wr("hello"), wr(", "), wr("world")}, "hello, world"},
		{"overwrite inside", []vfsStep{wr("0123456789"), seek(2, kernel.SeekSet), wr("ab")}, "01ab456789"},
		{"overwrite then append", []vfsStep{wr("0123456789"), seek(3, kernel.SeekSet), wr("abc"), seek(0, kernel.SeekEnd), wr("!")}, "012abc6789!"},
		{"straddle EOF", []vfsStep{wr("0123456789"), seek(-3, kernel.SeekEnd), wr("ABCDEF")}, "0123456ABCDEF"},
		{"seek past EOF", []vfsStep{wr("abc"), seek(5, kernel.SeekEnd), wr("xy")}, "abc\x00\x00\x00\x00\x00xy"},
		{"write into hole", []vfsStep{wr("ab"), seek(6, kernel.SeekSet), wr("Z"), seek(3, kernel.SeekSet), wr("h")}, "ab\x00h\x00\x00Z"},
		{"truncating reopen, shorter write", []vfsStep{wr("a much longer body"), reopen, wr("short")}, "short"},
		{"truncating reopen, then hole", []vfsStep{wr("0123456789"), reopen, seek(2, kernel.SeekSet), wr("x")}, "\x00\x00x"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			k := newKernel(1, kernel.IsolationFull)
			if _, err := k.Spawn(kernel.HelloWorldSpec(), 0, func(p *kernel.Proc) {
				charge := func(fd int, s string) sim.Time {
					t0 := p.Now()
					if n, err := k.Write(p, fd, []byte(s)); err != nil || n != len(s) {
						t.Fatalf("write %q: n=%d err=%v", s, n, err)
					}
					return p.Now() - t0
				}
				fd, err := k.Open(p, "/f", true)
				if err != nil {
					t.Fatal(err)
				}
				for i, st := range tc.steps {
					switch {
					case st.open:
						// A reader holding the old contents keeps them.
						ino, _ := k.VFS().Lookup("/f")
						held, old := ino.Data, string(ino.Data)
						if fd, err = k.Open(p, "/f", true); err != nil {
							t.Fatal(err)
						}
						defer func() {
							if string(held) != old {
								t.Errorf("data held across the truncating reopen became %q, want %q", held, old)
							}
						}()
					case st.seek:
						if _, err := k.Lseek(p, fd, st.off, st.whence); err != nil {
							t.Fatalf("step %d: %v", i, err)
						}
					default:
						got := charge(fd, st.write)
						ref, err := k.Open(p, "/ref", true)
						if err != nil {
							t.Fatal(err)
						}
						if want := charge(ref, st.write); got != want {
							t.Errorf("step %d: write of %d bytes charged %d ns, a write to an empty file %d ns", i, len(st.write), got, want)
						}
						if err := k.Close(p, ref); err != nil {
							t.Fatal(err)
						}
					}
				}
				ino, _ := k.VFS().Lookup("/f")
				if string(ino.Data) != tc.want {
					t.Errorf("file = %q, want %q", ino.Data, tc.want)
				}
				if end, err := k.Lseek(p, fd, 0, kernel.SeekEnd); err != nil || end != uint64(len(tc.want)) {
					t.Errorf("SeekEnd = %d, %v; want %d", end, err, len(tc.want))
				}
				if size, err := k.Stat(p, "/f"); err != nil || size != uint64(len(tc.want)) {
					t.Errorf("Stat size = %d, %v; want %d", size, err, len(tc.want))
				}
				buf := make([]byte, len(tc.want)+4)
				if _, err := k.Lseek(p, fd, 0, kernel.SeekSet); err != nil {
					t.Fatal(err)
				}
				if n, err := k.Read(p, fd, buf); err != nil || string(buf[:n]) != tc.want {
					t.Errorf("read back %q, %v; want %q", buf[:n], err, tc.want)
				}
			}); err != nil {
				t.Fatal(err)
			}
			k.Run()
		})
	}
}

const (
	ramfsFileBytes  = 16 << 20
	ramfsChunkBytes = 64 << 10
)

// appendFile writes ramfsFileBytes to a fresh ram-disk file in
// ramfsChunkBytes writes, the shape of a BGSAVE dump.
func appendFile(tb testing.TB, k *kernel.Kernel, p *kernel.Proc, chunk []byte) {
	fd, err := k.Open(p, "/dump", true)
	if err != nil {
		tb.Fatal(err)
	}
	for n := 0; n < ramfsFileBytes; n += len(chunk) {
		if _, err := k.Write(p, fd, chunk); err != nil {
			tb.Fatal(err)
		}
	}
	if err := k.Close(p, fd); err != nil {
		tb.Fatal(err)
	}
}

// TestRamfsAppendAllocation pins the host cost of growing a ram-disk file
// as a count rather than a time: writing a 16 MiB file in 64 KiB writes
// may allocate at most 8× the file size in Go heap, which holds only if
// the file grows geometrically (growing it to exactly its new end on
// every write allocates about 128×).
func TestRamfsAppendAllocation(t *testing.T) {
	k := newKernel(1, kernel.IsolationFull)
	chunk := bytes.Repeat([]byte{0x5a}, ramfsChunkBytes)
	if _, err := k.Spawn(kernel.HelloWorldSpec(), 0, func(p *kernel.Proc) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		appendFile(t, k, p, chunk)
		runtime.ReadMemStats(&after)
		ratio := float64(after.TotalAlloc-before.TotalAlloc) / ramfsFileBytes
		t.Logf("allocated %.1f× the file size", ratio)
		if ratio > 8 {
			t.Errorf("writing a %d MiB file allocated %.1f× its size, want ≤ 8×", ramfsFileBytes>>20, ratio)
		}
		ino, _ := k.VFS().Lookup("/dump")
		if bytes.Count(ino.Data, chunk[:1]) != ramfsFileBytes {
			t.Errorf("file holds %d bytes, want %d of 0x5a", len(ino.Data), ramfsFileBytes)
		}
	}); err != nil {
		t.Fatal(err)
	}
	k.Run()
}

// BenchmarkRamfsAppend is the informational host cost of one 16 MiB
// ram-disk file written in 64 KiB writes.
//
//	go test ./internal/kernel -run xxx -bench RamfsAppend -benchmem
func BenchmarkRamfsAppend(b *testing.B) {
	k := newKernel(1, kernel.IsolationFull)
	chunk := make([]byte, ramfsChunkBytes)
	if _, err := k.Spawn(kernel.HelloWorldSpec(), 0, func(p *kernel.Proc) {
		b.SetBytes(ramfsFileBytes)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			appendFile(b, k, p, chunk)
		}
	}); err != nil {
		b.Fatal(err)
	}
	k.Run()
}
