; y = a*x + y streamed in strips of 8 until a strip's flag word is 0: a
; strip-mined daxpy whose steady state the translated engine replays
; from its loop-iteration memo. x and y lie exactly 64 KiB apart, so
; each x line and the y line beside it map to the same line of the
; 64 KiB direct-mapped data cache and evict each other: every strip
; misses, cold or warm. The flag words make the exit data-dependent.
; Run:  mtasm run examples/asm/stream.s

.data 0x20000                       ; x[i] = i, 8 per strip
.double 0, 1, 2, 3, 4, 5, 6, 7
.double 8, 9, 10, 11, 12, 13, 14, 15
.double 16, 17, 18, 19, 20, 21, 22, 23
.double 24, 25, 26, 27, 28, 29, 30, 31
.double 32, 33, 34, 35, 36, 37, 38, 39
.double 40, 41, 42, 43, 44, 45, 46, 47
.double 48, 49, 50, 51, 52, 53, 54, 55
.double 56, 57, 58, 59, 60, 61, 62, 63
.double 64, 65, 66, 67, 68, 69, 70, 71
.double 72, 73, 74, 75, 76, 77, 78, 79
.double 80, 81, 82, 83, 84, 85, 86, 87
.double 88, 89, 90, 91, 92, 93, 94, 95
.double 96, 97, 98, 99, 100, 101, 102, 103
.double 104, 105, 106, 107, 108, 109, 110, 111
.double 112, 113, 114, 115, 116, 117, 118, 119
.double 120, 121, 122, 123, 124, 125, 126, 127
.double 128, 129, 130, 131, 132, 133, 134, 135
.double 136, 137, 138, 139, 140, 141, 142, 143
.double 144, 145, 146, 147, 148, 149, 150, 151
.double 152, 153, 154, 155, 156, 157, 158, 159
.data 0x30000                       ; y[i] = 100, 64 KiB above x
.double 100, 100, 100, 100, 100, 100, 100, 100
.double 100, 100, 100, 100, 100, 100, 100, 100
.double 100, 100, 100, 100, 100, 100, 100, 100
.double 100, 100, 100, 100, 100, 100, 100, 100
.double 100, 100, 100, 100, 100, 100, 100, 100
.double 100, 100, 100, 100, 100, 100, 100, 100
.double 100, 100, 100, 100, 100, 100, 100, 100
.double 100, 100, 100, 100, 100, 100, 100, 100
.double 100, 100, 100, 100, 100, 100, 100, 100
.double 100, 100, 100, 100, 100, 100, 100, 100
.double 100, 100, 100, 100, 100, 100, 100, 100
.double 100, 100, 100, 100, 100, 100, 100, 100
.double 100, 100, 100, 100, 100, 100, 100, 100
.double 100, 100, 100, 100, 100, 100, 100, 100
.double 100, 100, 100, 100, 100, 100, 100, 100
.double 100, 100, 100, 100, 100, 100, 100, 100
.double 100, 100, 100, 100, 100, 100, 100, 100
.double 100, 100, 100, 100, 100, 100, 100, 100
.double 100, 100, 100, 100, 100, 100, 100, 100
.double 100, 100, 100, 100, 100, 100, 100, 100
.data 0x40000                       ; one flag per strip; 0 stops
.word 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 0
.data 0x40100
.double 2.5                         ; a

    li   r1, 0x20000
    li   r2, 0x30000
    li   r3, 0x40000
    li   r5, 0x40100
    fld  R16, 0(r5)
strip:
    fldv R0..R7, 0(r1), 8           ; x strip (one load per cycle)
    fmul R0..R7, R0..R7, R16        ; a*x while y loads below overlap
    fldv R8..R15, 0(r2), 8          ; y strip: evicts the x lines
    fadd R8..R15, R8..R15, R0..R7
    fstv R8..R15, 0(r2), 8          ; stores interlock with the elements
    addi r1, r1, 64
    addi r2, r2, 64
    lw   r4, 0(r3)                  ; this strip's flag
    addi r3, r3, 4
    bne  r4, r0, strip
    halt
