package main

import "fmt"

func printLedger(r *result) {
	if len(r.ledger) == 0 {
		return
	}
	fmt.Println("  reconciliation (ns per unit):")
	sum := 0.0
	for _, row := range r.ledger {
		fmt.Printf("    %-70s %10.1f\n", row.layer, row.ns)
		sum += row.ns
	}
	fmt.Printf("    %-70s %10.1f\n", "sum", sum)
	fmt.Printf("    %-70s %10.1f\n", "traced cpu_ns_per_pkt", r.tracedCPU)
	fmt.Printf("    %-70s %10.1f\n", "untraced cpu_ns_per_pkt (same run)", r.untracedCPU)
	fmt.Printf("    %-70s %10.1f\n", "tracing overhead (traced - untraced)", r.tracedCPU-r.untracedCPU)
}
