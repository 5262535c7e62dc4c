// The benchmark is a module of its own so that it builds from its own
// directory; the udbench/ path prefix is what lets it import the
// parent module's internal packages through the replace below.
module udbench/bench

go 1.24

require udbench v0.0.0

replace udbench => ../
