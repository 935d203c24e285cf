# Extracts the simulated metrics of the root package's benchmarks from
# `go test -bench` output: one "Benchmark metric value" line each, the
# -N GOMAXPROCS suffix dropped. Host-timed units are left out: they
# differ from run to run, while every other metric is a function of
# the seeded simulation alone.
/^pkg: / { pkg = $2 }
pkg == "repro" && /^Benchmark/ {
	name = $1
	sub(/-[0-9]+$/, "", name)
	for (i = 3; i < NF; i += 2) {
		unit = $(i + 1)
		if (unit !~ /^(ns\/op|B\/op|allocs\/op|events_per_s|speedup_x|sim_s_per_wall_s|ns_per_event|alpha_speedup_x)$/)
			print name, unit, $i
	}
}
