//go:build !linux

package main

func peakRSSMB() float64 { return 0 }

func fsType(string) string { return "unknown" }
