//go:build !amd64

package core

// Non-amd64 builds always take the pure-Go interiors.
const haveLaneAsm = false

func laneFill16(*laneArgs16) { panic("core: laneFill16 without asm") }
func laneFill32(*laneArgs32) { panic("core: laneFill32 without asm") }

func affinePairA32(*affinePairArgs)                       { panic("core: affinePairA32 without asm") }
func affinePairAB32(*affinePairArgs)                      { panic("core: affinePairAB32 without asm") }
func affineChainC32(*affineChainArgs, *affineChainConsts) { panic("core: affineChainC32 without asm") }
