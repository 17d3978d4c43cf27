package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"strconv"

	"ufork/internal/alloc"
	"ufork/internal/apps/kvstore"
	"ufork/internal/bench/ycsb"
	"ufork/internal/kernel"
	"ufork/internal/model"
	"ufork/internal/sim"
)

// kvShape is one kvstore workload's configuration.
type kvShape struct {
	keys, valBytes int
	mix            ycsb.Mix
	workers        int // forked worker μprocesses, each with its own listener; 0 = the parent serves
	clients        int // client drivers per serving μprocess, one open-loop stream each
	rate           float64
	ops            int
}

// aofBytes is the append-only-file record an update writes.
const aofBytes = 64

func keyName(i int) string { return fmt.Sprintf("key:%06d", i) }

// kvValue is the value of key at version: a "key@version;" header the
// oracle decodes, padded to n bytes with filler derived from both.
func kvValue(key int, version int64, n int) []byte {
	v := make([]byte, n)
	h := copy(v, keyName(key)+"@"+strconv.FormatInt(version, 10)+";")
	x := uint32(key)*2654435761 ^ uint32(version)*40503
	for i := h; i < n; i++ {
		x = x*1103515245 + 12345
		v[i] = byte(x >> 16)
	}
	return v
}

// checkValue is the read oracle: got must be exactly key's value at the
// version the shadow map holds.
func checkValue(got []byte, key int, version int64, n int) error {
	want := kvValue(key, version, n)
	if bytes.Equal(got, want) {
		return nil
	}
	hdr := want[:bytes.IndexByte(want, ';')+1]
	switch {
	case len(got) != n:
		return fmt.Errorf("%s: read %d bytes, want %d", hdr, len(got), n)
	case bytes.HasPrefix(got, hdr):
		return fmt.Errorf("%s: value differs from the one written", hdr)
	}
	return fmt.Errorf("read %q, want %q", got[:len(hdr)], hdr)
}

// checkDump is the snapshot oracle: the dump must parse and hold exactly
// the shadow state captured when the snapshot was forked.
func checkDump(data []byte, shadow []int64, n int) error {
	got, err := kvstore.LoadDump(data)
	if err != nil {
		return fmt.Errorf("dump: %w", err)
	}
	if len(got) != len(shadow) {
		return fmt.Errorf("dump holds %d keys, want %d", len(got), len(shadow))
	}
	for key, ver := range shadow {
		if err := checkValue(got[keyName(key)], key, ver, n); err != nil {
			return fmt.Errorf("dump: %w", err)
		}
	}
	return nil
}

// kvSpec is the kvstore server image: the machine's static heap, and a
// block-descriptor table scaled to the keyspace.
func kvSpec(k *kernel.Kernel, s kvShape) kernel.ProgramSpec {
	metaBytes := (8*s.keys + 4096) * 32
	heap := max(8192, 2*s.keys*(s.valBytes+256)/int(kernel.PageSize), k.Machine.StaticHeapPages)
	return kernel.ProgramSpec{
		Name:      "kvsrv",
		TextPages: 256, RodataPages: 64, GOTPages: 4, DataPages: 256,
		AllocMetaPages: metaBytes/int(kernel.PageSize) + 1,
		HeapPages:      heap, StackPages: 64, TLSPages: 1,
		GOTEntries: 256,
	}
}

func bucketCount(keys int) int {
	n := 1024
	for n < 2*keys {
		n *= 2
	}
	return n
}

// kvServer is one μprocess serving requests against its own view of the
// store, with the shadow map its oracle checks reads against. It serves
// one connection at a time, so the shadow map follows the store exactly.
type kvServer struct {
	pb     *probe
	p      *kernel.Proc
	store  *kvstore.Store
	shadow []int64 // key → version this process's store holds
	aof    int
	shape  kvShape
	sab    string // sabotage mode, see opts
}

// reqHeader is a request's fixed part on the wire: arrival ID, op, key.
// An update's value follows it.
const reqHeader = 13

func encodeRequest(a arrival, n int) []byte {
	b := make([]byte, reqHeader, reqHeader+n)
	binary.LittleEndian.PutUint64(b, uint64(a.ID))
	b[8] = byte(a.Op)
	binary.LittleEndian.PutUint32(b[9:], uint32(a.Key))
	if a.Op != ycsb.OpRead {
		b = append(b, kvValue(a.Key, a.ID, n)...)
	}
	return b
}

// readRequest reads one request from the connection and decodes it.
func readRequest(k *kernel.Kernel, p *kernel.Proc, cfd, n int) (arrival, []byte, error) {
	buf := make([]byte, reqHeader+n)
	got := 0
	for got < reqHeader || (ycsb.Op(buf[8]) != ycsb.OpRead && got < len(buf)) {
		m, err := k.Read(p, cfd, buf[got:])
		if err != nil {
			return arrival{}, nil, err
		}
		if m == 0 {
			return arrival{}, nil, fmt.Errorf("request cut short at %d bytes", got)
		}
		got += m
	}
	a := arrival{ID: int64(binary.LittleEndian.Uint64(buf)), Op: ycsb.Op(buf[8]),
		Key: int(binary.LittleEndian.Uint32(buf[9:]))}
	return a, buf[reqHeader:got], nil
}

// handle accepts one connection and serves its request: read or update
// the store, check a read against the shadow map, and reply with "+" and
// the value, or "-" and the oracle's or the store's error.
func (s *kvServer) handle(lfd int) error {
	r, p := s.pb.r, s.p
	k := p.Kernel()
	cfd, err := k.Accept(p, lfd)
	if err != nil {
		return fmt.Errorf("accept: %w", err)
	}
	defer func() { _ = k.Close(p, cfd) }()
	a, val, err := readRequest(k, p, cfd, s.shape.valBytes)
	if err != nil {
		return err
	}
	root := r.spans.rootOf(a.ID)
	reply := []byte("+")
	if a.Op == ycsb.OpRead {
		id := r.spans.begin("kvstore.Get", a.ID, root, p.Now())
		var got []byte
		got, err = s.store.Get(keyName(a.Key))
		r.spans.end(id, p.Now())
		if err == nil {
			if s.sab == sabotageRead && a.ID%7 == 3 {
				got[len(got)-1] ^= 1
			}
			err = checkValue(got, a.Key, s.shadow[a.Key], s.shape.valBytes)
			reply = append(reply, got...)
		}
	} else {
		id := r.spans.begin("kvstore.Set", a.ID, root, p.Now())
		err = s.store.Set(keyName(a.Key), val)
		r.spans.end(id, p.Now())
		if err == nil {
			s.shadow[a.Key] = a.ID
			if s.aof >= 0 {
				id := r.spans.begin("k.Write", a.ID, root, p.Now())
				_, err = k.Write(p, s.aof, make([]byte, aofBytes))
				r.spans.end(id, p.Now())
			}
		}
	}
	if err != nil {
		reply = []byte("-" + err.Error())
	}
	_, err = k.Write(p, cfd, reply)
	return err
}

// kvClient is one off-core client driver: it sends each arrival of its
// stream at its due time over a fresh connection, as httpd.DoRequest
// does, and waits for the reply.
func kvClient(r *rep, l *kernel.Listener, dp *kernel.Proc, stream []arrival, n int) {
	k := dp.Kernel()
	buf := make([]byte, 1+n)
	for _, a := range stream {
		idleUntil(dp.Task, r.start+a.Due)
		issued := dp.Now()
		root := r.spans.begin("kv."+a.Op.String(), a.ID, -1, issued)
		r.spans.setRoot(a.ID, root)
		conn := l.Connect(dp)
		dp.Task.Advance(k.Machine.NetRTT)
		_, err := conn.Send(k, dp, encodeRequest(a, n))
		var resp []byte
		for err == nil {
			var m int
			if m, err = conn.Recv(k, dp, buf); m == 0 {
				break
			}
			resp = append(resp, buf[:m]...)
		}
		_ = conn.CloseClient(k, dp)
		r.spans.end(root, dp.Now())
		if err == nil && (len(resp) == 0 || resp[0] != '+') {
			err = fmt.Errorf("reply %q", resp)
		}
		r.done(a, issued, dp.Now(), err)
	}
}

// spawnClients starts one off-core client driver per stream; the streams
// are spread evenly over the listeners.
func spawnClients(r *rep, p *kernel.Proc, ls []*kernel.Listener, arr [][]arrival, n int) error {
	for i, stream := range arr {
		l := ls[i*len(ls)/len(arr)]
		if _, err := p.Kernel().Spawn(driverSpec(), p.Now(), func(dp *kernel.Proc) {
			dp.Task.Offcore = true
			kvClient(r, l, dp, stream, n)
		}); err != nil {
			return err
		}
	}
	return nil
}

// snapshotter cycles BGSAVE: fork a child that serialises the store to
// the ram-disk, and check each finished dump against the shadow state
// captured at its fork.
type snapshotter struct {
	srv      *kvServer
	n        int
	pid      kernel.PID // in-flight snapshot child, 0 when none
	path     string
	want     []int64 // shadow state at the in-flight snapshot's fork
	span     int32
	saves    int
	dumpB    uint64
	saveVirt sim.Time
}

// start forks the next snapshot child.
func (b *snapshotter) start() error {
	s := b.srv
	r, k, p := s.pb.r, s.p.Kernel(), s.p
	b.n++
	b.path = fmt.Sprintf("/dump-%d.rdb", b.n)
	b.want = append(b.want[:0], s.shadow...)
	op := -int64(b.n) - 1
	b.span = r.spans.begin("bgsave", op, -1, p.Now())
	path, parent := b.path, b.span
	pid, err := s.pb.fork(p, op, parent, func(c *kernel.Proc) {
		cs, err := kvstore.Attach(c)
		if err == nil {
			id := r.spans.begin("kvstore.Save", op, parent, c.Now())
			v0 := c.Now()
			err = cs.Save(path)
			b.saveVirt += c.Now() - v0
			r.spans.end(id, c.Now())
		}
		if err != nil {
			k.Exit(c, 1)
		}
		k.Exit(c, 0)
	})
	if err != nil {
		return fmt.Errorf("bgsave fork: %w", err)
	}
	b.pid = pid
	return nil
}

// reap waits for a child, and when it is the snapshot child, checks its
// dump. It returns the reaped PID.
func (b *snapshotter) reap() (kernel.PID, error) {
	s := b.srv
	r, k, p := s.pb.r, s.p.Kernel(), s.p
	id := r.spans.begin("k.Wait", -int64(b.n)-1, b.span, p.Now())
	pid, status, err := k.Wait(p)
	r.spans.end(id, p.Now())
	if err != nil {
		return 0, fmt.Errorf("wait: %w", err)
	}
	if pid != b.pid {
		if status != 0 {
			return pid, fmt.Errorf("worker %d exited with status %d", pid, status)
		}
		return pid, nil
	}
	r.spans.end(b.span, p.Now())
	b.pid = 0
	if status != 0 {
		return pid, fmt.Errorf("snapshot child exited with status %d", status)
	}
	ino, ok := k.VFS().Lookup(b.path)
	if !ok {
		return pid, fmt.Errorf("snapshot %s missing", b.path)
	}
	data := ino.Data
	if s.sab == sabotageDump && b.n == 1 {
		data = append([]byte(nil), data...)
		data[len(data)-1] ^= 1
	}
	b.saves++
	b.dumpB += uint64(len(data))
	_ = k.VFS().Remove(b.path)
	return pid, checkDump(data, b.want, s.shape.valBytes)
}

// exited reports whether the snapshot child has finished, without
// blocking. The caller syncs its clock first, so the answer depends only
// on virtual time.
func (b *snapshotter) exited() bool {
	if b.pid == 0 {
		return false
	}
	c, ok := b.srv.p.Kernel().FindProc(b.pid)
	return !ok || c.Exited()
}

// runKV boots the kvstore, preloads it, and serves the generated streams,
// sent by off-core client drivers: from forked workers (kv-update) or from
// the parent itself (bgsave), while the parent cycles BGSAVE.
func runKV(s kvShape, o opts) (*rep, error) {
	ops := o.size(s.ops)
	nstreams := max(1, s.workers) * s.clients
	arr := streams(o.seed, nstreams, ops/nstreams, s.rate, s.mix, s.keys)

	r := &rep{}
	if o.traced {
		r.spans = newSpanLog()
	}
	c0 := processCPU()
	dataPages := s.keys * (s.valBytes + 256) / int(kernel.PageSize)
	id := r.spans.begin("kernel.New", -1, -1, 0)
	k := boot(model.UForkSMP(2), 4*dataPages+1<<16, o.traced)
	r.spans.end(id, 0)
	pb := newProbe(r, k, c0)

	err := runRoot(k, kvSpec(k, s), func(p *kernel.Proc) error {
		id := r.spans.begin("preload", -1, -1, p.Now())
		a := alloc.Attach(p)
		if err := a.Init(); err != nil {
			return err
		}
		store, err := kvstore.Init(p, a, bucketCount(s.keys))
		if err != nil {
			return err
		}
		for i := 0; i < s.keys; i++ {
			if err := store.Set(keyName(i), kvValue(i, 0, s.valBytes)); err != nil {
				return err
			}
		}
		r.spans.end(id, p.Now())
		parent := &kvServer{pb: pb, p: p, store: store, shadow: make([]int64, s.keys), aof: -1, shape: s, sab: o.sabotage}
		snap := &snapshotter{srv: parent}
		if s.workers == 0 {
			err = serveParent(parent, snap, arr)
		} else {
			err = serveWorkers(parent, snap, arr)
		}
		if err != nil {
			return err
		}
		pb.finish(p.Now())
		r.virt["kvstore.saves"] = float64(snap.saves)
		r.virt["kvstore.dump_mb"] = ratio(float64(snap.dumpB)/(1<<20), float64(snap.saves))
		r.virt["kvstore.save_virt_ms"] = ratio(float64(snap.saveVirt)/1e6, float64(snap.saves))
		return nil
	})
	return r, err
}

func countOps(arr [][]arrival) int {
	n := 0
	for _, s := range arr {
		n += len(s)
	}
	return n
}

// serveParent is bgsave's loop: the parent serves every request itself
// and, between requests, starts the next snapshot as soon as the previous
// one has finished, so snapshots run back to back under the stream.
func serveParent(srv *kvServer, snap *snapshotter, arr [][]arrival) error {
	pb, p := srv.pb, srv.p
	lfd, l := p.Kernel().Listen(p)
	pb.begin(p.Now())
	if err := spawnClients(pb.r, p, []*kernel.Listener{l}, arr, srv.shape.valBytes); err != nil {
		return err
	}
	cycle := func() error {
		p.Task.Sync()
		if snap.exited() {
			if _, err := snap.reap(); err != nil {
				return err
			}
		}
		if snap.pid == 0 {
			return snap.start()
		}
		return nil
	}
	for i := countOps(arr); i > 0; i-- {
		if err := cycle(); err != nil {
			pb.r.fail("%v", err)
		}
		if err := srv.handle(lfd); err != nil {
			return err
		}
	}
	if snap.pid != 0 {
		if _, err := snap.reap(); err != nil {
			pb.r.fail("%v", err)
		}
	}
	return nil
}

// serveWorkers is kv-update's loop. During set-up the parent opens one
// listener per worker and forks the workers; each attaches to its own copy
// of the store, opens a private AOF, and blocks in accept. The measured
// phase begins when the parent starts the client drivers; the parent then
// cycles BGSAVE until every worker has served its share and retired.
func serveWorkers(parent *kvServer, snap *snapshotter, arr [][]arrival) error {
	pb, p := parent.pb, parent.p
	k := p.Kernel()
	r := pb.r
	nw := parent.shape.workers
	ls := make([]*kernel.Listener, nw)
	workers := map[kernel.PID]bool{}
	for w := 0; w < nw; w++ {
		w := w
		var lfd int
		lfd, ls[w] = k.Listen(p)
		share := countOps(arr[w*len(arr)/nw : (w+1)*len(arr)/nw])
		id := r.spans.begin("k.Fork", -1, -1, p.Now())
		pid, err := k.Fork(p, func(c *kernel.Proc) {
			ws, err := kvstore.Attach(c)
			if err == nil {
				var fd int
				if fd, err = k.Open(c, fmt.Sprintf("/aof-%d", w), true); err == nil {
					srv := &kvServer{pb: pb, p: c, store: ws, shadow: append([]int64(nil), parent.shadow...),
						aof: fd, shape: parent.shape, sab: parent.sab}
					for i := 0; i < share && err == nil; i++ {
						err = srv.handle(lfd)
					}
				}
			}
			if err != nil {
				r.fail("worker %d: %v", w, err)
				k.Exit(c, 1)
			}
			k.Exit(c, 0)
		})
		r.spans.end(id, p.Now())
		if err != nil {
			return err
		}
		workers[pid] = true
	}
	pb.begin(p.Now())
	if err := spawnClients(r, p, ls, arr, parent.shape.valBytes); err != nil {
		return err
	}
	for left := len(workers); left > 0; {
		if snap.pid == 0 {
			if err := snap.start(); err != nil {
				return err
			}
		}
		pid, err := snap.reap()
		if err != nil {
			r.fail("%v", err)
		}
		if workers[pid] {
			left--
		}
	}
	if snap.pid != 0 {
		if _, err := snap.reap(); err != nil {
			r.fail("%v", err)
		}
	}
	return nil
}
