//go:build race

package sched_test

func init() { raceEnabled = true }
