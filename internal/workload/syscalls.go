// Package workload implements generative models of the legacy
// applications used in the paper's evaluation: an mplayer-like media
// player with bursty syscall emission and MPEG GOP-structured decode
// times, an ffmpeg-like CPU-bound transcoder, and synthetic periodic
// real-time load.
//
// The models are the reproduction's substitute for the closed binaries
// the authors traced. What matters for fidelity is the property the
// paper's Section 4.2 relies on: each job emits bursts of system calls
// concentrated at the beginning and end of its period, at instants
// that shift with scheduling delay. Jobs carry their syscalls as
// (execution offset, number) data that the scheduler issues into the
// task's sink when the job's execution reaches each offset, so a
// preempted job emits its calls late — exactly the load sensitivity
// measured in Table 2.
package workload

// Syscall identifies a system call in the traced event stream. The
// numbering is internal to the reproduction (it does not follow any
// real kernel's table).
type Syscall int

// System calls emitted by the application models. The mix mirrors
// Figure 4 of the paper: an mplayer run is dominated by ioctl()
// traffic to the ALSA audio device.
const (
	SysIoctl Syscall = iota
	SysRead
	SysWrite
	SysPoll
	SysSelect
	SysNanosleep
	SysGettimeofday
	SysFutex
	SysMmap
	SysMunmap
	SysOpen
	SysClose
	SysLseek
	SysStat
	NumSyscalls int = iota
)

var syscallNames = [...]string{
	SysIoctl:        "ioctl",
	SysRead:         "read",
	SysWrite:        "write",
	SysPoll:         "poll",
	SysSelect:       "select",
	SysNanosleep:    "clock_nanosleep",
	SysGettimeofday: "gettimeofday",
	SysFutex:        "futex",
	SysMmap:         "mmap",
	SysMunmap:       "munmap",
	SysOpen:         "open",
	SysClose:        "close",
	SysLseek:        "lseek",
	SysStat:         "stat",
}

// String implements fmt.Stringer.
func (s Syscall) String() string {
	if s >= 0 && int(s) < len(syscallNames) {
		return syscallNames[s]
	}
	return "syscall?"
}
