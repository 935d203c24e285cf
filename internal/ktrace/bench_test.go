package ktrace

import (
	"testing"

	"repro/internal/simtime"
)

// BenchmarkDrainPID is one tuner activation's download in the tune
// benchmark workload: a ring of the default 64k capacity holding
// 200 ms of 24 processes' syscalls (~88 each, ~2k in all), from which
// one process's events are drained. Re-injecting them afterwards keeps
// the ring at that occupancy, so every iteration, -benchtime=1x
// included, measures the steady state.
func BenchmarkDrainPID(b *testing.B) {
	const pids, perPID = 24, 88
	buf := NewBuffer(QTrace, 1<<16)
	step := 200 * simtime.Millisecond / (pids * perPID)
	for i := 0; i < pids*perPID; i++ {
		buf.Syscall(simtime.Time(i)*simtime.Time(step), 1+i%pids, 1)
	}
	buf.Inject(buf.DrainPID(1))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf.Inject(buf.DrainPID(1 + i%pids))
	}
}

// BenchmarkSyscall is the tracer's record path: one traced system call
// into a ring that has already grown to the default capacity of 64k
// events, so every record wraps and overwrites the oldest event. It
// allocates nothing, and CI gates its allocs/op.
func BenchmarkSyscall(b *testing.B) {
	const capacity, pids = 1 << 16, 24
	buf := NewBuffer(QTrace, capacity)
	for i := 0; i < capacity; i++ {
		buf.Syscall(simtime.Time(i), 1+i%pids, 1)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf.Syscall(simtime.Time(capacity+i), 1+i%pids, 1)
	}
}
