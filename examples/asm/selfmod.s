; A loop that patches one of its own instructions partway through.
; Forty trips add 1 to r4, until the 30th trip stores a new word over
; the loop's first instruction: `addi r4, r4, 100`. The last ten trips
; add 100 each, so r4 ends at 30 + 10 * 100 = 1030, stored at 0x20000.
; The translated engine replays the first trips from its loop-iteration
; memo; the store into the text rolls its replay back, and from then on
; both engines fetch the written word from memory.
; The program is assembled at the default base 0x10000, so `loop` is at
; 0x1001c.
; Run:  mtasm run examples/asm/selfmod.s

.data 0x20000
.word 0                             ; result: r4 at the end
.word 0x22100064                    ; addi r4, r4, 100

    li   r5, 0x20000
    lw   r6, 4(r5)                  ; the new word
    li   r7, 0x1001c                ; its address: `loop`
    li   r2, 40                     ; trips left
    li   r3, 10                     ; trips left when the patch lands
    li   r4, 0
loop:
    addi r4, r4, 1                  ; becomes addi r4, r4, 100
    addi r2, r2, -1
    bne  r2, r3, next
    sw   r6, 0(r7)                  ; the 30th trip patches `loop`
next:
    bne  r2, r0, loop
    sw   r4, 0(r5)
    halt
