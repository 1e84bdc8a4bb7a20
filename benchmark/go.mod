module symbiosys/benchmark

go 1.22

require symbiosys v0.0.0

replace symbiosys => ../
