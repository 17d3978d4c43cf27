package main

// layers are the CPU-profile attribution buckets: the repository's
// modules (kernel split into its ram-disk and memory-access paths), the
// observability planes, and the benchmark's own code. Each gets a self
// time (samples whose innermost layer frame is the layer) and a
// cumulative time (samples with any frame of the layer on the stack).
var layers = []string{
	"alloc", "kernel", "kernel.vfs", "kernel.memaccess", "core", "vm", "tmem", "cap", "sim",
	"minipy", "kvstore", "faas", "httpd", "obs", "bench",
}

// perLayer lists every per-layer figure a traced run reports, with its
// unit. Names holding "host" are host-clock figures; every other figure is
// virtual or a count and must repeat exactly for a seed.
var perLayer = func() [][2]string {
	out := [][2]string{
		{"alloc.allocs", "count"}, {"alloc.frees", "count"}, {"alloc.host_ns_per_free", "ns"},
		{"kernel.syscalls", "count"}, {"kernel.ctx_switches", "count"}, {"kernel.page_faults", "count"},
		{"kernel.lock_wait_virt_ms", "ms"}, {"kernel.lock_contended_frac", "fraction"},
		{"core.forks", "count"}, {"core.fork_virt_p50_us", "us"}, {"core.fork_virt_p99_us", "us"},
		{"core.fork_phase_virt_us.reserve", "us"}, {"core.fork_phase_virt_us.ptecopy", "us"},
		{"core.fork_phase_virt_us.eagercopy", "us"}, {"core.fork_phase_virt_us.scan", "us"},
		{"core.fork_phase_virt_us.reg", "us"}, {"core.fork_phase_virt_us.fixup", "us"},
		{"core.fork_host_us", "us"},
		{"vm.faults.write-protect", "count"}, {"vm.faults.cap-load", "count"}, {"vm.faults.no-read", "count"},
		{"vm.pages_copied", "count"}, {"vm.pages_adopted", "count"}, {"vm.caps_relocated", "count"},
		{"tmem.bytes_moved", "bytes"}, {"tmem.peak_frames", "count"},
		{"sim.dispatches", "count"}, {"sim.runq_wait_p99_us", "us"}, {"sim.core_busy_frac", "fraction"},
		{"kvstore.get_host_us", "us"}, {"kvstore.set_host_us", "us"}, {"kvstore.save_virt_ms", "ms"},
		{"kvstore.save_host_s", "s"}, {"kvstore.dump_mb", "MiB"}, {"kvstore.saves", "count"},
		{"faas.child_run_host_ms", "ms"},
		{"httpd.request_host_us", "us"},
		{"host.alloc_mb_per_kop", "MiB/kop"}, {"host.gc_cycles", "count"},
		{"runtime.host_self_s", "s"},
		{"gen.late_p99_us", "us"}, {"gen.late_frac", "fraction"},
		{"trace.overhead_frac", "fraction"},
		// fail_ratio is end to end, but reads 0 on every correct run, so it
		// is listed here rather than among the bounded end-to-end metrics.
		{"fail_ratio", "failed/attempted"},
	}
	for _, l := range layers {
		out = append(out, [2]string{l + ".host_self_s", "s"}, [2]string{l + ".host_cum_s", "s"})
	}
	return out
}()

var perLayerNames = func() []string {
	out := make([]string, len(perLayer))
	for i, m := range perLayer {
		out[i] = m[0]
	}
	return out
}()

func unitOf(name string) string {
	for _, m := range perLayer {
		if m[0] == name {
			return m[1]
		}
	}
	return "count"
}
