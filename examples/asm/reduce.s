; Eight partial sums of x, 16 elements per strip, then a tree reduction:
; the Reduction template of the serve benchmark's generated programs.
; Each strip's second fadd accumulates into the partial sums the first
; one is still writing, so its elements issue behind the first's, three
; cycles apart: at every trip of the strip loop the back-edge carries
; writes in flight and a vector still issuing, timing state the
; translated engine's loop-iteration memo keys and replays.
; Run:  mtasm run examples/asm/reduce.s

.data 0x20000                       ; x[i] = i + 1, 128 elements
.double 1, 2, 3, 4, 5, 6, 7, 8
.double 9, 10, 11, 12, 13, 14, 15, 16
.double 17, 18, 19, 20, 21, 22, 23, 24
.double 25, 26, 27, 28, 29, 30, 31, 32
.double 33, 34, 35, 36, 37, 38, 39, 40
.double 41, 42, 43, 44, 45, 46, 47, 48
.double 49, 50, 51, 52, 53, 54, 55, 56
.double 57, 58, 59, 60, 61, 62, 63, 64
.double 65, 66, 67, 68, 69, 70, 71, 72
.double 73, 74, 75, 76, 77, 78, 79, 80
.double 81, 82, 83, 84, 85, 86, 87, 88
.double 89, 90, 91, 92, 93, 94, 95, 96
.double 97, 98, 99, 100, 101, 102, 103, 104
.double 105, 106, 107, 108, 109, 110, 111, 112
.double 113, 114, 115, 116, 117, 118, 119, 120
.double 121, 122, 123, 124, 125, 126, 127, 128
.data 0x20800                       ; the partial sums start at 0; the
.double 0, 0, 0, 0, 0, 0, 0, 0      ; total lands here

    li   r4, 0x20800
    fldv R8..R15, 0(r4), 8
    li   r5, 0                      ; pass
    li   r6, 8                      ; passes
    li   r3, 0x20400                ; end of x
pass:
    li   r1, 0x20000
strip:
    fldv R0..R7, 0(r1), 8           ; x[16j .. 16j+7]
    fadd R8..R15, R8..R15, R0..R7
    fldv R24..R31, 64(r1), 8        ; x[16j+8 .. 16j+15]
    fadd R8..R15, R8..R15, R24..R31 ; behind the first fadd
    addi r1, r1, 128
    blt  r1, r3, strip
    addi r5, r5, 1
    blt  r5, r6, pass
    fadd R34..R37, R8..R11, R12..R15
    fadd R38..R39, R34..R35, R36..R37
    fadd R34, R38, R39              ; 8 x (1 + ... + 128) = 66048
    fst  R34, 0(r4)
    halt
