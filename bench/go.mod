// The benchmark is a module of its own so that it builds from its own
// directory; the replace directive resolves the repository's module, whose
// internal packages the import path umon/bench is allowed to use.
module umon/bench

go 1.22

require umon v0.0.0

replace umon => ../
