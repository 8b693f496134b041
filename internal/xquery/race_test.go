//go:build race

package xquery

func init() { raceEnabled = true }
