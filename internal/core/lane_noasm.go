//go:build !amd64

package core

// Non-amd64 builds always take the pure-Go interiors.
const haveLaneAsm = false

func laneFill16(*laneArgs16) { panic("core: laneFill16 without asm") }
func laneFill32(*laneArgs32) { panic("core: laneFill32 without asm") }

func affineRow32(*affineRowArgs, *affineRowConsts) { panic("core: affineRow32 without asm") }
