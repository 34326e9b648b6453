module pimcapsnet/bench

go 1.22

require pimcapsnet v0.0.0

replace pimcapsnet => ../
