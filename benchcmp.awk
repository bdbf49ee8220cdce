# benchcmp.awk compares `go test -bench -benchmem` output from two
# builds of one package run on the same machine; `make bench-compare`
# is its caller. Each input file is preceded by side=base or side=head.
# For every benchmark both sides ran, it takes each side's best (lowest)
# ns/op, B/op and allocs/op over all rounds, prints the head/base ratios,
# and exits 1 when a ratio exceeds limit, or when head allocates (bytes
# or objects) where base allocated nothing (a ratio cannot show that).

BEGIN { limit = 2 }

/^Benchmark/ {
	for (i = 3; i < NF; i++) {
		if ($(i + 1) == "ns/op") keepmin(ns, side, $1, $i)
		if ($(i + 1) == "B/op") keepmin(bytes, side, $1, $i)
		if ($(i + 1) == "allocs/op") keepmin(allocs, side, $1, $i)
	}
	if (side == "base" && !($1 in seen)) { seen[$1] = 1; order[++n] = $1 }
}

function keepmin(best, side, name, v) {
	if (!((side, name) in best) || v + 0 < best[side, name]) best[side, name] = v + 0
}

# gate returns the head/base ratio of a count as text ("-" when base is
# 0) and appends to why when it fails.
function gate(base, head, what) {
	if (base == 0) {
		if (head > 0) why = why " " what " (base allocates nothing)"
		return "-"
	}
	if (head / base > limit) why = why " " what
	return sprintf("%.2f", head / base)
}

END {
	printf "%-44s %13s %13s %6s %11s %11s %6s %11s %11s %6s\n", "benchmark (best of rounds)", "base ns/op", "head ns/op", "ratio", "base B", "head B", "ratio", "base allocs", "head allocs", "ratio"
	for (j = 1; j <= n; j++) {
		b = order[j]
		if (!(("head", b) in ns)) continue
		compared++
		why = ""
		tr = ns["head", b] / ns["base", b]
		if (tr > limit) why = why " ns/op"
		br = gate(bytes["base", b], bytes["head", b], "B/op")
		ar = gate(allocs["base", b], allocs["head", b], "allocs/op")
		if (why != "") { failed++; why = "  FAIL:" why }
		printf "%-44s %13.0f %13.0f %6.2f %11d %11d %6s %11d %11d %6s%s\n", b, ns["base", b], ns["head", b], tr, bytes["base", b], bytes["head", b], br, allocs["base", b], allocs["head", b], ar, why
	}
	if (compared == 0) { print "bench-compare: no benchmark ran on both sides"; exit 1 }
	if (failed) { printf "bench-compare: %d of %d benchmarks regressed beyond %gx of base\n", failed, compared, limit; exit 1 }
	printf "bench-compare: %d benchmarks within %gx of base\n", compared, limit
}
