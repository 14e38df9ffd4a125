//! The two-pass text assembler.
//!
//! Syntax summary (one instruction per line; `;` or `#` start a comment):
//!
//! ```text
//! loop:                        ; labels end with ':'
//!     li    r1, 0x2000         ; integer registers are lowercase r0..r31
//!     fld   R0, 0(r1)          ; FPU registers are uppercase R0..R51
//!     fadd  R8..R11, R0..R3, R4..R7   ; register ranges stride (VL = 4)
//!     fmul  R16..R19, R0..R3, R32     ; a plain source broadcasts (SRb = 0)
//!     fdiv  R2, R0, R1, R48, R49      ; macro: 6-op Newton–Raphson divide
//!     fldv  R0..R7, 0(r1), 16         ; pseudo: 8 strided loads (Fig. 9)
//!     addi  r1, r1, 8
//!     blt   r1, r2, loop
//!     halt
//! ```
//!
//! The destination operand's range length fixes the vector length; each
//! source must be a range of the same length (striding) or a plain register
//! (scalar broadcast).

use std::collections::HashMap;

use mt_fparith::FpOp;
use mt_isa::cpu::{AluOp, BranchCond};
use mt_isa::{FReg, IReg};
use mt_sim::Program;

use crate::builder::{Asm, Label};
use crate::error::AsmError;
use crate::span::{SourceMap, SourceSpan};
use mt_sim::DataSegment;

/// An FPU register operand: plain or a striding range.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct FOperand {
    first: FReg,
    /// `None` for a plain (non-striding) register; `Some(len)` for a range.
    len: Option<u8>,
}

/// Assembles source text into a [`Program`] at `base`.
///
/// # Errors
///
/// Returns the first syntax, validation, or label error with its 1-based
/// source line.
pub fn parse(source: &str, base: u32) -> Result<Program, AsmError> {
    Ok(parse_with_source_map(source, base)?.0)
}

/// Like [`parse`], also returning a [`SourceMap`] carrying each
/// instruction's source span and any `lint: allow(...)` comment
/// annotations — the glue `mtasm lint` uses for rustc-style diagnostics.
///
/// # Errors
///
/// See [`parse`].
pub fn parse_with_source_map(source: &str, base: u32) -> Result<(Program, SourceMap), AsmError> {
    let mut asm = Asm::new();
    let mut labels: HashMap<String, Label> = HashMap::new();
    let mut segments: Vec<DataSegment> = Vec::new();
    let mut current_seg: Option<DataSegment> = None;
    let mut allows: HashMap<usize, Vec<String>> = HashMap::new();

    let mut get_label = |asm: &mut Asm, name: &str| -> Label {
        *labels
            .entry(name.to_string())
            .or_insert_with(|| asm.label())
    };

    for (lineno, raw) in source.lines().enumerate() {
        let lineno = lineno + 1;
        if let Some((_, comment)) = raw.split_once([';', '#']) {
            let rules = crate::span::parse_allow_annotation(comment);
            if !rules.is_empty() {
                allows.entry(lineno).or_default().extend(rules);
            }
        }
        let line = raw.split([';', '#']).next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }

        // Data directives.
        if let Some(rest) = line.strip_prefix('.') {
            parse_directive(rest, lineno, &mut segments, &mut current_seg)?;
            continue;
        }

        // Labels (possibly followed by an instruction on the same line).
        let mut rest = line;
        while let Some(colon) = rest.find(':') {
            let (name, after) = rest.split_at(colon);
            let name = name.trim();
            if !is_ident(name) {
                break;
            }
            let l = get_label(&mut asm, name);
            if asm.is_bound(l) {
                return Err(AsmError::at(
                    lineno,
                    format!("label `{name}` defined twice"),
                ));
            }
            asm.bind(l);
            rest = after[1..].trim();
        }
        if rest.is_empty() {
            continue;
        }

        // `rest` is a subslice of `raw`, so its byte offset is the column.
        let col = rest.as_ptr() as usize - raw.as_ptr() as usize + 1;
        asm.set_span(Some(SourceSpan {
            line: lineno,
            col,
            len: rest.len(),
        }));
        parse_instruction(rest, lineno, &mut asm, &mut get_label)?;
    }

    // Every referenced label must have been bound; name the least
    // unbound one, so the error does not depend on the map's order.
    let unbound = labels.iter().filter(|&(_, &l)| !asm.is_bound(l));
    if let Some(name) = unbound.map(|(name, _)| name).min() {
        return Err(AsmError::new(format!("label `{name}` is never defined")));
    }

    if let Some(seg) = current_seg.take() {
        segments.push(seg);
    }
    let (mut program, spans) = asm.assemble_with_spans(base)?;
    program.segments = segments;
    let map = SourceMap::new(spans, source, allows);
    Ok((program, map))
}

/// Parses one `.directive` line: `.data <addr>` opens a segment;
/// `.double` and `.word` append values to it.
fn parse_directive(
    rest: &str,
    lineno: usize,
    segments: &mut Vec<DataSegment>,
    current: &mut Option<DataSegment>,
) -> Result<(), AsmError> {
    let (name, args) = match rest.find(char::is_whitespace) {
        Some(i) => (&rest[..i], rest[i..].trim()),
        None => (rest, ""),
    };
    match name {
        "data" => {
            if let Some(seg) = current.take() {
                segments.push(seg);
            }
            let addr = imm(args, lineno)? as u32;
            *current = Some(DataSegment {
                base: addr,
                bytes: Vec::new(),
            });
        }
        "double" => {
            let seg = current
                .as_mut()
                .ok_or_else(|| AsmError::at(lineno, "`.double` before `.data`".to_string()))?;
            for v in args.split(',') {
                let v = v.trim();
                let value: f64 = v
                    .parse()
                    .map_err(|_| AsmError::at(lineno, format!("bad double `{v}`")))?;
                seg.bytes.extend_from_slice(&value.to_bits().to_le_bytes());
            }
        }
        "word" => {
            let seg = current
                .as_mut()
                .ok_or_else(|| AsmError::at(lineno, "`.word` before `.data`".to_string()))?;
            for v in args.split(',') {
                let value = imm(v.trim(), lineno)? as u32;
                seg.bytes.extend_from_slice(&value.to_le_bytes());
            }
        }
        other => {
            return Err(AsmError::at(
                lineno,
                format!("unknown directive `.{other}`"),
            ))
        }
    }
    Ok(())
}

fn is_ident(s: &str) -> bool {
    !s.is_empty()
        && s.chars().next().unwrap().is_ascii_alphabetic()
        && s.chars().all(|c| c.is_ascii_alphanumeric() || c == '_')
}

fn parse_instruction(
    text: &str,
    lineno: usize,
    asm: &mut Asm,
    get_label: &mut impl FnMut(&mut Asm, &str) -> Label,
) -> Result<(), AsmError> {
    let err = |m: String| AsmError::at(lineno, m);
    let (mnemonic, operand_text) = match text.find(char::is_whitespace) {
        Some(i) => (&text[..i], text[i..].trim()),
        None => (text, ""),
    };
    let ops: Vec<&str> = if operand_text.is_empty() {
        Vec::new()
    } else {
        operand_text.split(',').map(str::trim).collect()
    };
    let want = |n: usize| -> Result<(), AsmError> {
        if ops.len() == n {
            Ok(())
        } else {
            Err(err(format!(
                "`{mnemonic}` expects {n} operands, got {}",
                ops.len()
            )))
        }
    };

    match mnemonic {
        "nop" => {
            want(0)?;
            asm.nop();
        }
        "halt" => {
            want(0)?;
            asm.halt();
        }
        "mfpsw" => {
            want(1)?;
            asm.instr(mt_isa::Instr::Mfpsw {
                rd: ireg(ops[0], lineno)?,
            });
        }
        "clrpsw" => {
            want(0)?;
            asm.instr(mt_isa::Instr::ClrPsw);
        }
        m if AluOp::from_mnemonic(m).is_some() => {
            want(3)?;
            asm.alu(
                AluOp::from_mnemonic(m).unwrap(),
                ireg(ops[0], lineno)?,
                ireg(ops[1], lineno)?,
                ireg(ops[2], lineno)?,
            );
        }
        "addi" => {
            want(3)?;
            asm.addi(
                ireg(ops[0], lineno)?,
                ireg(ops[1], lineno)?,
                imm(ops[2], lineno)?,
            );
        }
        "li" => {
            want(2)?;
            asm.li(ireg(ops[0], lineno)?, imm(ops[1], lineno)?);
        }
        "lui" => {
            want(2)?;
            let v = imm(ops[1], lineno)?;
            asm.instr(mt_isa::Instr::Lui {
                rd: ireg(ops[0], lineno)?,
                imm: v as u32,
            });
        }
        "lw" | "sw" => {
            want(2)?;
            let r = ireg(ops[0], lineno)?;
            let (offset, base) = mem_operand(ops[1], lineno)?;
            if mnemonic == "lw" {
                asm.lw(r, base, offset);
            } else {
                asm.sw(r, base, offset);
            }
        }
        "fld" | "fst" => {
            want(2)?;
            let r = freg(ops[0], lineno)?;
            let (offset, base) = mem_operand(ops[1], lineno)?;
            if mnemonic == "fld" {
                asm.fld(r, base, offset);
            } else {
                asm.fst(r, base, offset);
            }
        }
        // Vector load/store pseudo-instructions: expand to one scalar
        // load/store per register, the stride folded into the offsets
        // (Fig. 9). `fldv R0..R7, 0(r1), 16` loads eight doubles 16 bytes
        // apart.
        "fldv" | "fstv" => {
            want(3)?;
            let range = foperand(ops[0], lineno)?;
            let len = range.len.ok_or_else(|| {
                err(format!(
                    "`{mnemonic}` needs a register range, got `{}`",
                    ops[0]
                ))
            })?;
            let (offset, base) = mem_operand(ops[1], lineno)?;
            let stride = imm(ops[2], lineno)?;
            for i in 0..len {
                let r = FReg::new(range.first.index() + i);
                let off = stride
                    .checked_mul(i32::from(i))
                    .and_then(|d| offset.checked_add(d))
                    .ok_or_else(|| err(format!("`{mnemonic}` offset of {r} overflows")))?;
                if mnemonic == "fldv" {
                    asm.fld(r, base, off);
                } else {
                    asm.fst(r, base, off);
                }
            }
        }
        "fdiv" => {
            want(5)?;
            asm.fdiv(
                freg(ops[0], lineno)?,
                freg(ops[1], lineno)?,
                freg(ops[2], lineno)?,
                freg(ops[3], lineno)?,
                freg(ops[4], lineno)?,
            )
            .map_err(|e| err(e.message))?;
        }
        m if FpOp::from_mnemonic(m).is_some() => {
            let op = FpOp::from_mnemonic(m).unwrap();
            let n = if op.is_unary() { 2 } else { 3 };
            want(n)?;
            let rr = foperand(ops[0], lineno)?;
            let ra = foperand(ops[1], lineno)?;
            let rb = if op.is_unary() {
                FOperand {
                    first: FReg::new(0),
                    len: None,
                }
            } else {
                foperand(ops[2], lineno)?
            };
            let vl = rr.len.unwrap_or(1);
            let check_src = |s: FOperand, which: &str| -> Result<bool, AsmError> {
                match s.len {
                    None => Ok(false),
                    Some(l) if l == vl => Ok(true),
                    Some(l) => Err(err(format!(
                        "{which} range length {l} does not match destination length {vl}"
                    ))),
                }
            };
            let sra = check_src(ra, "Ra")?;
            let srb = check_src(rb, "Rb")?;
            asm.fvector_general(op, rr.first, ra.first, rb.first, vl, sra, srb)
                .map_err(|e| err(e.message))?;
        }
        "beq" | "bne" | "blt" | "bge" => {
            want(3)?;
            let cond = match mnemonic {
                "beq" => BranchCond::Eq,
                "bne" => BranchCond::Ne,
                "blt" => BranchCond::Lt,
                _ => BranchCond::Ge,
            };
            let rs1 = ireg(ops[0], lineno)?;
            let rs2 = ireg(ops[1], lineno)?;
            if !is_ident(ops[2]) {
                return Err(err(format!("expected label, got `{}`", ops[2])));
            }
            let l = get_label(asm, ops[2]);
            asm.branch(cond, rs1, rs2, l);
        }
        "j" | "jal" => {
            want(1)?;
            if !is_ident(ops[0]) {
                return Err(err(format!("expected label, got `{}`", ops[0])));
            }
            let l = get_label(asm, ops[0]);
            if mnemonic == "j" {
                asm.j(l);
            } else {
                asm.jal(l);
            }
        }
        "jr" => {
            want(1)?;
            asm.jr(ireg(ops[0], lineno)?);
        }
        other => return Err(err(format!("unknown mnemonic `{other}`"))),
    }
    Ok(())
}

fn ireg(s: &str, lineno: usize) -> Result<IReg, AsmError> {
    s.strip_prefix('r')
        .and_then(|n| n.parse::<u8>().ok())
        .and_then(IReg::try_new)
        .ok_or_else(|| {
            AsmError::at(
                lineno,
                format!("expected integer register r0..r31, got `{s}`"),
            )
        })
}

fn freg(s: &str, lineno: usize) -> Result<FReg, AsmError> {
    s.strip_prefix('R')
        .and_then(|n| n.parse::<u8>().ok())
        .and_then(FReg::try_new)
        .ok_or_else(|| AsmError::at(lineno, format!("expected FPU register R0..R51, got `{s}`")))
}

fn foperand(s: &str, lineno: usize) -> Result<FOperand, AsmError> {
    if let Some((lo, hi)) = s.split_once("..") {
        let first = freg(lo.trim(), lineno)?;
        let last = freg(hi.trim(), lineno)?;
        if last.index() < first.index() {
            return Err(AsmError::at(
                lineno,
                format!("descending register range `{s}`"),
            ));
        }
        let len = last.index() - first.index() + 1;
        if len > 16 {
            return Err(AsmError::at(
                lineno,
                format!("range `{s}` longer than the maximum vector length 16"),
            ));
        }
        Ok(FOperand {
            first,
            len: Some(len),
        })
    } else {
        Ok(FOperand {
            first: freg(s, lineno)?,
            len: None,
        })
    }
}

fn imm(s: &str, lineno: usize) -> Result<i32, AsmError> {
    let parse = |t: &str, neg: bool| -> Option<i32> {
        let v = if let Some(hex) = t.strip_prefix("0x") {
            i64::from_str_radix(hex, 16).ok()?
        } else {
            t.parse::<i64>().ok()?
        };
        let v = if neg { -v } else { v };
        i32::try_from(v).ok().or(
            // Allow unsigned 32-bit hex constants like 0xFFFFC000.
            if !neg {
                u32::try_from(v).ok().map(|u| u as i32)
            } else {
                None
            },
        )
    };
    let (t, neg) = match s.strip_prefix('-') {
        Some(rest) => (rest, true),
        None => (s, false),
    };
    parse(t, neg).ok_or_else(|| AsmError::at(lineno, format!("bad immediate `{s}`")))
}

/// Parses a hex word as `mtasm --base`, `mtasm dis` and the service's
/// `?base=` take it: hex digits after at most one `0x` or `0X`.
pub fn parse_hex_u32(text: &str) -> Result<u32, std::num::ParseIntError> {
    let digits = text.strip_prefix("0x").or_else(|| text.strip_prefix("0X"));
    u32::from_str_radix(digits.unwrap_or(text), 16)
}

fn mem_operand(s: &str, lineno: usize) -> Result<(i32, IReg), AsmError> {
    let open = s
        .find('(')
        .ok_or_else(|| AsmError::at(lineno, format!("expected `offset(base)`, got `{s}`")))?;
    let close = s
        .rfind(')')
        .filter(|&c| c > open)
        .ok_or_else(|| AsmError::at(lineno, format!("unclosed memory operand `{s}`")))?;
    let offset_text = s[..open].trim();
    let offset = if offset_text.is_empty() {
        0
    } else {
        imm(offset_text, lineno)?
    };
    let base = ireg(s[open + 1..close].trim(), lineno)?;
    Ok((offset, base))
}

#[cfg(test)]
mod tests {
    use super::*;
    use mt_isa::Instr;
    use mt_sim::{Machine, SimConfig};

    fn run_source(src: &str) -> Machine {
        let p = parse(src, 0x1_0000).expect("assembles");
        let mut m = Machine::new(SimConfig::default());
        m.load_program(&p);
        m.warm_instructions(&p);
        m.run().expect("halts");
        m
    }

    #[test]
    fn scalar_program_end_to_end() {
        let m = run_source(
            r"
            ; add two constants through memory
            li   r1, 0x2000
            li   r2, 3
            sw   r2, 0(r1)
            lw   r3, 0(r1)
            addi r3, r3, 39
            halt
            ",
        );
        assert_eq!(m.ireg(IReg::new(3)), 42);
    }

    #[test]
    fn vector_range_syntax() {
        let p = parse("fadd R8..R11, R0..R3, R4..R7\nhalt\n", 0x1_0000).unwrap();
        match Instr::decode(p.words[0]).unwrap() {
            Instr::Falu(f) => {
                assert_eq!(f.vl, 4);
                assert!(f.sra && f.srb);
                assert_eq!(f.rr.index(), 8);
            }
            other => panic!("expected falu, got {other}"),
        }
    }

    #[test]
    fn broadcast_source_is_plain_register() {
        let p = parse("fmul R16..R19, R0..R3, R32\nhalt\n", 0x1_0000).unwrap();
        match Instr::decode(p.words[0]).unwrap() {
            Instr::Falu(f) => {
                assert!(f.sra);
                assert!(!f.srb);
                assert_eq!(f.rb.index(), 32);
            }
            other => panic!("expected falu, got {other}"),
        }
    }

    #[test]
    fn unary_ops_take_two_operands() {
        let p = parse(
            "frecip R5, R6\nfloat R1, R2\ntrunc R3, R4\nhalt\n",
            0x1_0000,
        )
        .unwrap();
        assert_eq!(p.len(), 4);
    }

    #[test]
    fn loop_with_labels() {
        let m = run_source(
            r"
            li   r1, 0
            li   r2, 10
            loop: addi r1, r1, 1
            blt  r1, r2, loop
            halt
            ",
        );
        assert_eq!(m.ireg(IReg::new(1)), 10);
    }

    #[test]
    fn fibonacci_via_text() {
        let m = run_source(
            r"
            li   r1, 0x2000
            fld  R0, 0(r1)       ; 1.0
            fld  R1, 8(r1)       # also 1.0 — both comment styles
            fadd R2..R9, R1..R8, R0..R7
            halt
            ",
        );
        // Memory was zero; loads gave 0.0 — rewrite with real data instead.
        let _ = m;
        let p = parse("fadd R2..R9, R1..R8, R0..R7\nhalt\n", 0x1_0000).unwrap();
        let mut m = Machine::new(SimConfig::default());
        m.load_program(&p);
        m.warm_instructions(&p);
        m.fpu.regs_mut().write_f64(FReg::new(0), 1.0);
        m.fpu.regs_mut().write_f64(FReg::new(1), 1.0);
        m.run().unwrap();
        assert_eq!(m.fpu.regs().read_f64(FReg::new(9)), 55.0);
    }

    #[test]
    fn fdiv_macro_in_text() {
        let p = parse("fdiv R2, R0, R1, R48, R49\nhalt\n", 0x1_0000).unwrap();
        assert_eq!(p.len(), 7);
        let mut m = Machine::new(SimConfig::default());
        m.load_program(&p);
        m.warm_instructions(&p);
        m.fpu.regs_mut().write_f64(FReg::new(0), 1.0);
        m.fpu.regs_mut().write_f64(FReg::new(1), 8.0);
        m.run().unwrap();
        assert_eq!(m.fpu.regs().read_f64(FReg::new(2)), 0.125);
    }

    #[test]
    fn fldv_fstv_expand_to_strided_scalars() {
        let p = parse(
            "fldv R0..R3, 8(r1), 16\nfstv R0..R3, 0(r2), 8\nhalt\n",
            0x1_0000,
        )
        .unwrap();
        assert_eq!(p.len(), 9, "4 loads + 4 stores + halt");
        match Instr::decode(p.words[1]).unwrap() {
            Instr::Fld { offset, .. } => assert_eq!(offset, 24, "8 + 1·16"),
            other => panic!("expected fld, got {other}"),
        }
        match Instr::decode(p.words[7]).unwrap() {
            Instr::Fst { offset, .. } => assert_eq!(offset, 24, "0 + 3·8"),
            other => panic!("expected fst, got {other}"),
        }
    }

    #[test]
    fn fldv_requires_a_range() {
        let e = parse("fldv R0, 0(r1), 8\n", 0).unwrap_err();
        assert!(e.message.contains("needs a register range"));
    }

    /// A stride whose element offsets leave `i32` is an error, not an
    /// arithmetic overflow (the grammar fuzz's minimized case).
    #[test]
    fn fldv_offset_overflow_is_an_error() {
        for src in [
            "fldv R0..R2, 0(r1), 0x7fffffff\n",
            "fstv R0..R1, 1(r1), 0x7fffffff\n",
        ] {
            let e = parse(src, 0).unwrap_err();
            assert!(e.message.contains("overflows"), "{src}: {}", e.message);
        }
    }

    #[test]
    fn error_unknown_mnemonic() {
        let e = parse("frobnicate r1\n", 0).unwrap_err();
        assert_eq!(e.line, 1);
        assert!(e.message.contains("unknown mnemonic"));
    }

    #[test]
    fn error_bad_register() {
        let e = parse("addi r32, r0, 1\n", 0).unwrap_err();
        assert!(e.message.contains("integer register"));
        let e = parse("fadd R52, R0, R1\n", 0).unwrap_err();
        assert!(e.message.contains("FPU register"));
    }

    #[test]
    fn error_mismatched_range_lengths() {
        let e = parse("fadd R8..R11, R0..R2, R4..R7\n", 0).unwrap_err();
        assert!(e.message.contains("does not match destination length"));
    }

    #[test]
    fn error_undefined_label() {
        let e = parse("j nowhere\nhalt\n", 0).unwrap_err();
        assert!(e.message.contains("never defined"));
    }

    #[test]
    fn error_duplicate_label() {
        let e = parse("x:\nnop\nx:\nhalt\n", 0).unwrap_err();
        assert!(e.message.contains("defined twice"));
    }

    #[test]
    fn labels_cost_constant_time_each() {
        // Assembly runs on untrusted text: 32,000 labelled lines must not
        // cost a scan of the labels bound so far per line.
        let source: String = (0..32_000).map(|k| format!("L{k}: nop\n")).collect();
        let started = std::time::Instant::now();
        let p = parse(&(source + "halt\n"), 0x1_0000).unwrap();
        assert!(
            started.elapsed() < std::time::Duration::from_secs(5),
            "32,000 labels took {:?}",
            started.elapsed()
        );
        assert_eq!(p.len(), 32_001);
    }

    #[test]
    fn error_operand_counts() {
        let e = parse("fadd R1, R2\n", 0).unwrap_err();
        assert!(e.message.contains("expects 3 operands"));
        let e = parse("frecip R1, R2, R3\n", 0).unwrap_err();
        assert!(e.message.contains("expects 2 operands"));
    }

    #[test]
    fn error_descending_range() {
        let e = parse("fadd R8..R5, R0..R3, R4..R7\n", 0).unwrap_err();
        assert!(e.message.contains("descending"));
    }

    #[test]
    fn error_range_too_long() {
        let e = parse("fadd R0..R16, R17..R33, R34..R50\n", 0).unwrap_err();
        assert!(e.message.contains("maximum vector length"));
    }

    #[test]
    fn hex_and_negative_immediates() {
        let m = run_source("li r1, 0x10\nli r2, -16\nhalt\n");
        assert_eq!(m.ireg(IReg::new(1)), 16);
        assert_eq!(m.ireg(IReg::new(2)), -16);
    }

    #[test]
    fn hex_words_take_at_most_one_prefix_of_either_case() {
        for text in ["10000", "0x10000", "0X10000"] {
            assert_eq!(parse_hex_u32(text), Ok(0x1_0000), "{text}");
        }
        for text in ["0x0x10000", "0X0X10000", "0x", "", "100000000"] {
            assert!(parse_hex_u32(text).is_err(), "{text}");
        }
    }

    #[test]
    fn label_and_instruction_on_same_line() {
        let m = run_source("start: li r1, 7\nhalt\n");
        assert_eq!(m.ireg(IReg::new(1)), 7);
    }

    #[test]
    fn data_directives_produce_segments() {
        let p = parse(
            "
            .data 0x2000
            .double 1.5, -2.25
            .word 42, 0x10
            .data 0x3000
            .double 9.0
            li r1, 0x2000
            fld R0, 0(r1)
            halt
            ",
            0x1_0000,
        )
        .unwrap();
        assert_eq!(p.segments.len(), 2);
        assert_eq!(p.segments[0].base, 0x2000);
        assert_eq!(p.segments[0].bytes.len(), 24);
        assert_eq!(p.segments[1].base, 0x3000);

        let mut m = Machine::new(SimConfig::default());
        m.load_program(&p);
        assert_eq!(m.mem.memory.read_f64(0x2000), 1.5);
        assert_eq!(m.mem.memory.read_f64(0x2008), -2.25);
        assert_eq!(m.mem.memory.read_u32(0x2010), 42);
        assert_eq!(m.mem.memory.read_u32(0x2014), 0x10);
        assert_eq!(m.mem.memory.read_f64(0x3000), 9.0);
        m.run().unwrap();
        assert_eq!(m.fpu.regs().read_f64(FReg::new(0)), 1.5);
    }

    #[test]
    fn data_directive_errors() {
        assert!(parse(".double 1.0\n", 0)
            .unwrap_err()
            .message
            .contains("before `.data`"));
        assert!(parse(".word 1\n", 0)
            .unwrap_err()
            .message
            .contains("before `.data`"));
        assert!(parse(".bogus 1\n", 0)
            .unwrap_err()
            .message
            .contains("unknown directive"));
        assert!(parse(".data 0x100\n.double oops\n", 0)
            .unwrap_err()
            .message
            .contains("bad double"));
    }
}
