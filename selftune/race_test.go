//go:build race

package selftune

func init() { raceEnabled = true }
