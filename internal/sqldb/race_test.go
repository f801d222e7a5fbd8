//go:build race

package sqldb_test

func init() { raceEnabled = true }
