//! A two-pass RV64 assembler for the instruction subset `meek-isa`
//! models.
//!
//! The grammar is deliberately the same one [`meek_isa::disasm`] prints:
//! the op enums' own mnemonics ([`BranchOp::mnemonic`] and its
//! siblings), ABI register names, `offset(base)` memory operands,
//! numeric CSR addresses, and a `.word` fallback for raw words — so any
//! disassembled trace line reassembles byte-identically
//! (property-tested in `meek-difftest`). On top of that it adds what
//! real programs need: labels, `.text`/`.data` sections, data
//! directives, and the standard pseudo-instructions (`li`, `la`,
//! `call`, `ret`, `j`, …). `la` expands to the `auipc`/`addi` pair the
//! difftest shrinker already understands.
//!
//! # Example
//!
//! ```
//! let prog = meek_progs::assemble(
//!     "demo",
//!     "main:\n  li a0, 7\n  addi a0, a0, 1\n  ret\n",
//! )
//! .unwrap();
//! assert_eq!(prog.code.len(), 3);
//! assert_eq!(prog.symbols["main"], prog.code_base);
//! ```

use meek_isa::inst::{
    AluImmOp, AluOp, BranchOp, CsrOp, FpCmpOp, FpOp, Inst, LoadOp, MulDivOp, StoreOp,
};
use meek_isa::{encode, FReg, Reg};
use std::collections::BTreeMap;
use std::fmt;

/// Where the assembler places the two sections. The defaults match the
/// conventions the rest of the repo uses: code low (`0x1000`, like the
/// codegen/fuzz program images) and data high (`0x1000_0000`, the
/// codegen `DATA_BASE`), far enough apart that `la`'s `auipc` reach
/// covers the gap and a data window can never collide with code.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AsmConfig {
    /// Base address of the `.text` section (and program entry).
    pub code_base: u64,
    /// Base address of the `.data` section.
    pub data_base: u64,
}

impl Default for AsmConfig {
    fn default() -> AsmConfig {
        AsmConfig { code_base: 0x1000, data_base: 0x1000_0000 }
    }
}

/// An assembled program: a flat code image, a flat data image, and the
/// resolved symbol table. [`crate::loader`] turns this into a runnable
/// [`meek_workloads::Workload`].
#[derive(Debug, Clone)]
pub struct Program {
    /// Program name (reported in listings and workload names).
    pub name: String,
    /// Address of `code[0]`; also the entry PC.
    pub code_base: u64,
    /// Encoded instruction words, one per 4 bytes from `code_base`.
    pub code: Vec<u32>,
    /// Address of `data[0]`.
    pub data_base: u64,
    /// Raw initialised-data bytes (little-endian), loaded at `data_base`.
    pub data: Vec<u8>,
    /// Every label, mapped to its absolute address.
    pub symbols: BTreeMap<String, u64>,
}

/// An assembly failure, carrying the 1-based source line it came from.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AsmError {
    /// 1-based line number in the source text.
    pub line: usize,
    /// Human-readable description of the problem.
    pub msg: String,
}

impl fmt::Display for AsmError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line {}: {}", self.line, self.msg)
    }
}

impl std::error::Error for AsmError {}

fn err<T>(line: usize, msg: impl Into<String>) -> Result<T, AsmError> {
    Err(AsmError { line, msg: msg.into() })
}

/// Assembles `source` with the default [`AsmConfig`].
pub fn assemble(name: &str, source: &str) -> Result<Program, AsmError> {
    assemble_with(name, source, &AsmConfig::default())
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Section {
    Text,
    Data,
}

/// Binds labels waiting on the current `.data` cursor, after any
/// alignment padding the directive inserted.
fn bind_data_labels(
    symbols: &mut BTreeMap<String, u64>,
    pending: &mut Vec<(String, usize)>,
    cfg: &AsmConfig,
    data: &[u8],
) -> Result<(), AsmError> {
    let addr = cfg.data_base + data.len() as u64;
    for (label, line) in pending.drain(..) {
        if symbols.insert(label.clone(), addr).is_some() {
            return err(line, format!("duplicate label `{label}`"));
        }
    }
    Ok(())
}

/// One parsed text-section statement, pre-sized in pass 1.
struct TextItem {
    line: usize,
    addr: u64,
    mnemonic: String,
    ops: Vec<String>,
}

/// A data cell whose value is a label, patched after pass 1.
struct DataFixup {
    line: usize,
    offset: usize,
    size: usize,
    symbol: String,
}

/// Assembles `source` at the section bases in `cfg`.
///
/// Two passes: the first parses statements, expands pseudo-instruction
/// sizes, lays out both sections, and collects the label table; the
/// second resolves symbols and encodes machine words.
pub fn assemble_with(name: &str, source: &str, cfg: &AsmConfig) -> Result<Program, AsmError> {
    let mut symbols: BTreeMap<String, u64> = BTreeMap::new();
    let mut items: Vec<TextItem> = Vec::new();
    let mut data: Vec<u8> = Vec::new();
    let mut fixups: Vec<DataFixup> = Vec::new();
    // Data labels bind only once the next directive has inserted its
    // alignment padding, so `b: .half 1` after three .bytes names the
    // padded, aligned cell.
    let mut pending_data: Vec<(String, usize)> = Vec::new();
    let mut section = Section::Text;
    let mut text_addr = cfg.code_base;

    for (idx, raw_line) in source.lines().enumerate() {
        let line = idx + 1;
        let mut rest = strip_comment(raw_line).trim();
        // Peel leading labels (several may share a line with a statement).
        while let Some((label, tail)) = split_label(rest) {
            if !is_ident(label) {
                return err(line, format!("invalid label name `{label}`"));
            }
            match section {
                Section::Text => {
                    if symbols.insert(label.to_string(), text_addr).is_some() {
                        return err(line, format!("duplicate label `{label}`"));
                    }
                }
                Section::Data => pending_data.push((label.to_string(), line)),
            }
            rest = tail.trim();
        }
        if rest.is_empty() {
            continue;
        }
        let (mnemonic, operand_str) = rest.split_once(char::is_whitespace).unwrap_or((rest, ""));
        let mnemonic = mnemonic.to_ascii_lowercase();
        let ops = split_operands(operand_str);

        match mnemonic.as_str() {
            ".text" => section = Section::Text,
            ".data" => section = Section::Data,
            ".globl" | ".global" | ".section" | ".option" => {} // accepted, inert
            ".align" if section == Section::Data => {
                let k = parse_int_op(&ops, 0, line)?;
                if !(0..=12).contains(&k) {
                    return err(line, format!(".align {k} out of range"));
                }
                let align = 1usize << k;
                while !data.len().is_multiple_of(align) {
                    data.push(0);
                }
                bind_data_labels(&mut symbols, &mut pending_data, cfg, &data)?;
            }
            ".byte" | ".half" | ".word" | ".dword" if section == Section::Data => {
                let size = match mnemonic.as_str() {
                    ".byte" => 1,
                    ".half" => 2,
                    ".word" => 4,
                    _ => 8,
                };
                while !data.len().is_multiple_of(size) {
                    data.push(0);
                }
                bind_data_labels(&mut symbols, &mut pending_data, cfg, &data)?;
                if ops.is_empty() {
                    return err(line, format!("{mnemonic} needs at least one value"));
                }
                for op in &ops {
                    if let Ok(v) = parse_int(op) {
                        check_cell_range(v, size, line)?;
                        data.extend_from_slice(&v.to_le_bytes()[..size]);
                    } else if is_ident(op) {
                        if size < 4 {
                            return err(line, "label values need .word or .dword");
                        }
                        fixups.push(DataFixup {
                            line,
                            offset: data.len(),
                            size,
                            symbol: op.clone(),
                        });
                        data.extend_from_slice(&[0u8; 8][..size]);
                    } else {
                        return err(line, format!("bad value `{op}`"));
                    }
                }
            }
            ".ascii" | ".asciz" => {
                if section != Section::Data {
                    return err(line, format!("{mnemonic} only allowed in .data"));
                }
                bind_data_labels(&mut symbols, &mut pending_data, cfg, &data)?;
                let s = parse_string_op(&ops, line)?;
                data.extend_from_slice(&s);
                if mnemonic == ".asciz" {
                    data.push(0);
                }
            }
            ".zero" => {
                if section != Section::Data {
                    return err(line, ".zero only allowed in .data");
                }
                let n = parse_int_op(&ops, 0, line)?;
                if !(0..=(1 << 20)).contains(&n) {
                    return err(line, format!(".zero {n} out of range"));
                }
                bind_data_labels(&mut symbols, &mut pending_data, cfg, &data)?;
                data.extend(std::iter::repeat_n(0u8, n as usize));
            }
            _ => {
                if section != Section::Text {
                    return err(line, format!("instruction `{mnemonic}` outside .text"));
                }
                let words = statement_words(&mnemonic, &ops, line)?;
                items.push(TextItem { line, addr: text_addr, mnemonic, ops });
                text_addr += 4 * words;
            }
        }
    }

    // Labels at the very end of .data name the one-past-the-end address.
    bind_data_labels(&mut symbols, &mut pending_data, cfg, &data)?;

    // Patch data cells that name labels.
    for fx in &fixups {
        let Some(&value) = symbols.get(&fx.symbol) else {
            return err(fx.line, format!("unknown label `{}`", fx.symbol));
        };
        data[fx.offset..fx.offset + fx.size].copy_from_slice(&value.to_le_bytes()[..fx.size]);
    }

    // Pass 2: encode.
    let mut code: Vec<u32> = Vec::new();
    for item in &items {
        let words = encode_statement(item, &symbols)?;
        debug_assert_eq!(
            words.len() as u64,
            statement_words(&item.mnemonic, &item.ops, item.line)?,
            "pass-1 size disagrees with pass-2 emission for `{}`",
            item.mnemonic
        );
        code.extend_from_slice(&words);
    }

    Ok(Program {
        name: name.to_string(),
        code_base: cfg.code_base,
        code,
        data_base: cfg.data_base,
        data,
        symbols,
    })
}

/// Removes a trailing comment (`#`, `//`, or `;`), respecting string
/// and character literals.
fn strip_comment(line: &str) -> &str {
    let bytes = line.as_bytes();
    let mut quote: Option<u8> = None;
    let mut i = 0;
    while i < bytes.len() {
        let b = bytes[i];
        match quote {
            Some(q) => {
                if b == b'\\' {
                    i += 1; // skip the escaped byte
                } else if b == q {
                    quote = None;
                }
            }
            None => match b {
                b'"' | b'\'' => quote = Some(b),
                b'#' | b';' => return &line[..i],
                b'/' if bytes.get(i + 1) == Some(&b'/') => return &line[..i],
                _ => {}
            },
        }
        i += 1;
    }
    line
}

/// Splits a leading `label:` off `rest`, if present.
fn split_label(rest: &str) -> Option<(&str, &str)> {
    let colon = rest.find(':')?;
    let label = &rest[..colon];
    // A colon inside an operand (there are none in this grammar) would
    // be preceded by whitespace or punctuation; labels are bare idents.
    if label.is_empty() || label.contains(char::is_whitespace) || label.contains('"') {
        return None;
    }
    Some((label, &rest[colon + 1..]))
}

fn is_ident(s: &str) -> bool {
    let mut chars = s.chars();
    match chars.next() {
        Some(c) if c.is_ascii_alphabetic() || c == '_' || c == '.' => {}
        _ => return false,
    }
    chars.all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '.' || c == '$')
}

/// Splits an operand list on commas, respecting quoted literals.
fn split_operands(s: &str) -> Vec<String> {
    let mut ops = Vec::new();
    let mut cur = String::new();
    let mut quote: Option<char> = None;
    let mut escaped = false;
    for c in s.chars() {
        match quote {
            Some(q) => {
                cur.push(c);
                if escaped {
                    escaped = false;
                } else if c == '\\' {
                    escaped = true;
                } else if c == q {
                    quote = None;
                }
            }
            None => match c {
                '"' | '\'' => {
                    quote = Some(c);
                    cur.push(c);
                }
                ',' => {
                    ops.push(cur.trim().to_string());
                    cur.clear();
                }
                _ => cur.push(c),
            },
        }
    }
    if !cur.trim().is_empty() {
        ops.push(cur.trim().to_string());
    }
    ops
}

/// Parses an integer literal: decimal, `0x` hex, `0b` binary, optional
/// leading `-`, or a character literal with the usual escapes.
fn parse_int(tok: &str) -> Result<i64, ()> {
    let tok = tok.trim();
    if let Some(inner) = tok.strip_prefix('\'').and_then(|t| t.strip_suffix('\'')) {
        let b = match inner {
            "\\n" => b'\n',
            "\\t" => b'\t',
            "\\r" => b'\r',
            "\\0" => 0,
            "\\\\" => b'\\',
            "\\'" => b'\'',
            _ if inner.len() == 1 && inner.is_ascii() => inner.as_bytes()[0],
            _ => return Err(()),
        };
        return Ok(b as i64);
    }
    let (neg, body) = match tok.strip_prefix('-') {
        Some(rest) => (true, rest),
        None => (false, tok),
    };
    let parsed = if let Some(hex) = body.strip_prefix("0x").or_else(|| body.strip_prefix("0X")) {
        u64::from_str_radix(hex, 16)
    } else if let Some(bin) = body.strip_prefix("0b").or_else(|| body.strip_prefix("0B")) {
        u64::from_str_radix(bin, 2)
    } else {
        body.parse::<u64>()
    };
    let v = parsed.map_err(|_| ())?;
    if neg {
        if v > 1 << 63 {
            return Err(());
        }
        Ok((v as i64).wrapping_neg())
    } else {
        Ok(v as i64)
    }
}

fn parse_int_op(ops: &[String], idx: usize, line: usize) -> Result<i64, AsmError> {
    let Some(tok) = ops.get(idx) else {
        return err(line, "missing operand");
    };
    parse_int(tok).or_else(|_| err(line, format!("bad integer `{tok}`")))
}

fn parse_string_op(ops: &[String], line: usize) -> Result<Vec<u8>, AsmError> {
    let Some(tok) = ops.first() else {
        return err(line, "missing string operand");
    };
    let Some(inner) = tok.strip_prefix('"').and_then(|t| t.strip_suffix('"')) else {
        return err(line, format!("expected a quoted string, got `{tok}`"));
    };
    let mut out = Vec::new();
    let mut chars = inner.chars();
    while let Some(c) = chars.next() {
        if c != '\\' {
            let mut buf = [0u8; 4];
            out.extend_from_slice(c.encode_utf8(&mut buf).as_bytes());
            continue;
        }
        match chars.next() {
            Some('n') => out.push(b'\n'),
            Some('t') => out.push(b'\t'),
            Some('r') => out.push(b'\r'),
            Some('0') => out.push(0),
            Some('\\') => out.push(b'\\'),
            Some('"') => out.push(b'"'),
            other => return err(line, format!("bad escape `\\{}`", other.unwrap_or(' '))),
        }
    }
    Ok(out)
}

fn check_cell_range(v: i64, size: usize, line: usize) -> Result<(), AsmError> {
    let ok = match size {
        1 => (-128..256).contains(&v),
        2 => (-(1 << 15)..(1 << 16)).contains(&v),
        4 => (-(1 << 31)..(1 << 32)).contains(&v),
        _ => true,
    };
    if ok {
        Ok(())
    } else {
        err(line, format!("value {v} does not fit in {size} bytes"))
    }
}

const REG_ABI: [&str; 32] = [
    "zero", "ra", "sp", "gp", "tp", "t0", "t1", "t2", "s0", "s1", "a0", "a1", "a2", "a3", "a4",
    "a5", "a6", "a7", "s2", "s3", "s4", "s5", "s6", "s7", "s8", "s9", "s10", "s11", "t3", "t4",
    "t5", "t6",
];

fn parse_reg(tok: &str, line: usize) -> Result<Reg, AsmError> {
    let tok = tok.trim();
    if let Some(pos) = REG_ABI.iter().position(|&n| n == tok) {
        return Ok(Reg::from_index(pos as u8));
    }
    if tok == "fp" {
        return Ok(Reg::X8);
    }
    if let Some(n) = tok.strip_prefix('x').and_then(|n| n.parse::<u8>().ok()) {
        if n < 32 {
            return Ok(Reg::from_index(n));
        }
    }
    err(line, format!("unknown register `{tok}`"))
}

fn parse_freg(tok: &str, line: usize) -> Result<FReg, AsmError> {
    let tok = tok.trim();
    if let Some(n) = tok.strip_prefix('f').and_then(|n| n.parse::<u8>().ok()) {
        if n < 32 {
            return Ok(FReg::new(n));
        }
    }
    err(line, format!("unknown fp register `{tok}`"))
}

/// Parses `offset(base)` (both parts optional: `(sp)` means offset 0).
fn parse_mem(tok: &str, line: usize) -> Result<(i32, Reg), AsmError> {
    let tok = tok.trim();
    let (Some(open), Some(close)) = (tok.find('('), tok.rfind(')')) else {
        return err(line, format!("expected `offset(base)`, got `{tok}`"));
    };
    if close != tok.len() - 1 || open >= close {
        return err(line, format!("expected `offset(base)`, got `{tok}`"));
    }
    let off_str = tok[..open].trim();
    let offset = if off_str.is_empty() {
        0
    } else {
        match parse_int(off_str) {
            Ok(v) if (-2048..=2047).contains(&v) => v as i32,
            Ok(v) => return err(line, format!("memory offset {v} out of i12 range")),
            Err(()) => return err(line, format!("bad memory offset `{off_str}`")),
        }
    };
    let base = parse_reg(&tok[open + 1..close], line)?;
    Ok((offset, base))
}

/// Expands `li rd, imm` into 1–2 instructions (`addi`, `lui`, or
/// `lui`+`addi`). 64-bit constants are out of scope: use `.dword` data
/// plus `ld`.
fn li_insts(rd: Reg, imm: i64, line: usize) -> Result<Vec<Inst>, AsmError> {
    if (-2048..=2047).contains(&imm) {
        return Ok(vec![Inst::AluImm { op: AluImmOp::Addi, rd, rs1: Reg::X0, imm: imm as i32 }]);
    }
    let hi = (imm + 0x800) >> 12;
    if !(-0x80000..=0x7FFFF).contains(&hi) {
        return err(line, format!("li immediate {imm:#x} needs 64 bits; use .dword data and ld"));
    }
    let lo = (imm - (hi << 12)) as i32;
    let mut seq = vec![Inst::Lui { rd, imm: hi as i32 }];
    if lo != 0 {
        seq.push(Inst::AluImm { op: AluImmOp::Addi, rd, rs1: rd, imm: lo });
    }
    Ok(seq)
}

/// Words a statement expands to — must agree exactly with
/// [`encode_statement`] (pass 1 uses it for layout).
fn statement_words(mnemonic: &str, ops: &[String], line: usize) -> Result<u64, AsmError> {
    Ok(match mnemonic {
        "li" => {
            let rd = parse_reg(ops.first().map_or("", |s| s), line)?;
            let imm = parse_int_op(ops, 1, line)?;
            li_insts(rd, imm, line)?.len() as u64
        }
        "la" => 2,
        _ => 1,
    })
}

/// A branch/jump target: either a bare numeric offset (the disassembler
/// prints those) or a label resolved against the statement address.
fn resolve_target(
    tok: &str,
    addr: u64,
    symbols: &BTreeMap<String, u64>,
    line: usize,
) -> Result<i64, AsmError> {
    if let Ok(v) = parse_int(tok) {
        return Ok(v);
    }
    match symbols.get(tok.trim()) {
        Some(&target) => Ok(target.wrapping_sub(addr) as i64),
        None => err(line, format!("unknown label `{}`", tok.trim())),
    }
}

fn check_branch_range(offset: i64, line: usize) -> Result<i32, AsmError> {
    if offset % 2 != 0 || !(-4096..=4094).contains(&offset) {
        return err(line, format!("branch offset {offset} out of range"));
    }
    Ok(offset as i32)
}

fn check_jal_range(offset: i64, line: usize) -> Result<i32, AsmError> {
    if offset % 2 != 0 || !(-(1 << 20)..(1 << 20)).contains(&offset) {
        return err(line, format!("jump offset {offset} out of range"));
    }
    Ok(offset as i32)
}

fn check_i12(v: i64, line: usize) -> Result<i32, AsmError> {
    if (-2048..=2047).contains(&v) {
        Ok(v as i32)
    } else {
        err(line, format!("immediate {v} out of i12 range"))
    }
}

fn check_shamt(v: i64, max: i64, line: usize) -> Result<i32, AsmError> {
    if (0..=max).contains(&v) {
        Ok(v as i32)
    } else {
        err(line, format!("shift amount {v} out of range 0..={max}"))
    }
}

fn check_csr(v: i64, line: usize) -> Result<u16, AsmError> {
    if (0..4096).contains(&v) {
        Ok(v as u16)
    } else {
        err(line, format!("CSR address {v:#x} out of range"))
    }
}

/// The `lui`/`auipc` immediate: the disassembler prints the raw 20-bit
/// field, so values with bit 19 set are accepted and sign-extended back
/// to the canonical decoded form.
fn check_u20(v: i64, line: usize) -> Result<i32, AsmError> {
    if (-0x80000..=0x7FFFF).contains(&v) {
        Ok(v as i32)
    } else if (0x80000..=0xFFFFF).contains(&v) {
        Ok((v - 0x100000) as i32)
    } else {
        err(line, format!("20-bit immediate {v:#x} out of range"))
    }
}

fn op_str(ops: &[String], idx: usize, line: usize) -> Result<&str, AsmError> {
    ops.get(idx).map(String::as_str).ok_or(AsmError { line, msg: "missing operand".into() })
}

fn expect_ops(ops: &[String], n: usize, mnemonic: &str, line: usize) -> Result<(), AsmError> {
    if ops.len() == n {
        Ok(())
    } else {
        err(line, format!("`{mnemonic}` expects {n} operand(s), got {}", ops.len()))
    }
}

/// Encodes one statement into machine words (pseudo-instructions expand
/// to several).
fn encode_statement(
    item: &TextItem,
    symbols: &BTreeMap<String, u64>,
) -> Result<Vec<u32>, AsmError> {
    let TextItem { line, addr, mnemonic, ops } = item;
    let (line, addr) = (*line, *addr);
    let m = mnemonic.as_str();

    // Raw word escape hatch (also the disassembler's undecodable form).
    if m == ".word" {
        expect_ops(ops, 1, m, line)?;
        let v = parse_int_op(ops, 0, line)?;
        if !(-(1 << 31)..(1 << 32)).contains(&v) {
            return err(line, format!(".word value {v:#x} does not fit in 32 bits"));
        }
        return Ok(vec![v as u32]);
    }

    let insts: Vec<Inst> = match m {
        "lui" | "auipc" => {
            expect_ops(ops, 2, m, line)?;
            let rd = parse_reg(op_str(ops, 0, line)?, line)?;
            let imm = check_u20(parse_int_op(ops, 1, line)?, line)?;
            vec![if m == "lui" { Inst::Lui { rd, imm } } else { Inst::Auipc { rd, imm } }]
        }
        "jal" => {
            let (rd, target) = match ops.len() {
                1 => (Reg::X1, op_str(ops, 0, line)?),
                2 => (parse_reg(op_str(ops, 0, line)?, line)?, op_str(ops, 1, line)?),
                n => return err(line, format!("`jal` expects 1–2 operands, got {n}")),
            };
            let offset = check_jal_range(resolve_target(target, addr, symbols, line)?, line)?;
            vec![Inst::Jal { rd, offset }]
        }
        "jalr" => match ops.len() {
            1 => {
                let rs1 = parse_reg(op_str(ops, 0, line)?, line)?;
                vec![Inst::Jalr { rd: Reg::X1, rs1, offset: 0 }]
            }
            2 => {
                let rd = parse_reg(op_str(ops, 0, line)?, line)?;
                let (offset, rs1) = parse_mem(op_str(ops, 1, line)?, line)?;
                vec![Inst::Jalr { rd, rs1, offset }]
            }
            n => return err(line, format!("`jalr` expects 1–2 operands, got {n}")),
        },
        "fld" => {
            expect_ops(ops, 2, m, line)?;
            let rd = parse_freg(op_str(ops, 0, line)?, line)?;
            let (offset, rs1) = parse_mem(op_str(ops, 1, line)?, line)?;
            vec![Inst::Fld { rd, rs1, offset }]
        }
        "fsd" => {
            expect_ops(ops, 2, m, line)?;
            let rs2 = parse_freg(op_str(ops, 0, line)?, line)?;
            let (offset, rs1) = parse_mem(op_str(ops, 1, line)?, line)?;
            vec![Inst::Fsd { rs1, rs2, offset }]
        }
        "fmadd.d" => {
            expect_ops(ops, 4, m, line)?;
            let rd = parse_freg(op_str(ops, 0, line)?, line)?;
            let rs1 = parse_freg(op_str(ops, 1, line)?, line)?;
            let rs2 = parse_freg(op_str(ops, 2, line)?, line)?;
            let rs3 = parse_freg(op_str(ops, 3, line)?, line)?;
            vec![Inst::FmaddD { rd, rs1, rs2, rs3 }]
        }
        "fcvt.d.l" => {
            expect_ops(ops, 2, m, line)?;
            let rd = parse_freg(op_str(ops, 0, line)?, line)?;
            let rs1 = parse_reg(op_str(ops, 1, line)?, line)?;
            vec![Inst::FcvtDL { rd, rs1 }]
        }
        "fcvt.l.d" => {
            expect_ops(ops, 2, m, line)?;
            let rd = parse_reg(op_str(ops, 0, line)?, line)?;
            let rs1 = parse_freg(op_str(ops, 1, line)?, line)?;
            vec![Inst::FcvtLD { rd, rs1 }]
        }
        "fmv.x.d" => {
            expect_ops(ops, 2, m, line)?;
            let rd = parse_reg(op_str(ops, 0, line)?, line)?;
            let rs1 = parse_freg(op_str(ops, 1, line)?, line)?;
            vec![Inst::FmvXD { rd, rs1 }]
        }
        "fmv.d.x" => {
            expect_ops(ops, 2, m, line)?;
            let rd = parse_freg(op_str(ops, 0, line)?, line)?;
            let rs1 = parse_reg(op_str(ops, 1, line)?, line)?;
            vec![Inst::FmvDX { rd, rs1 }]
        }
        "csrr" => {
            expect_ops(ops, 2, m, line)?;
            let rd = parse_reg(op_str(ops, 0, line)?, line)?;
            let csr = check_csr(parse_int_op(ops, 1, line)?, line)?;
            vec![Inst::Csr { op: CsrOp::Rs, rd, rs1: Reg::X0, csr }]
        }
        "csrw" => {
            expect_ops(ops, 2, m, line)?;
            let csr = check_csr(parse_int_op(ops, 0, line)?, line)?;
            let rs1 = parse_reg(op_str(ops, 1, line)?, line)?;
            vec![Inst::Csr { op: CsrOp::Rw, rd: Reg::X0, rs1, csr }]
        }
        "csrwi" => {
            expect_ops(ops, 2, m, line)?;
            let csr = check_csr(parse_int_op(ops, 0, line)?, line)?;
            let zimm = parse_int_op(ops, 1, line)?;
            if !(0..32).contains(&zimm) {
                return err(line, format!("zimm {zimm} out of range 0..32"));
            }
            vec![Inst::Csr { op: CsrOp::Rwi, rd: Reg::X0, rs1: Reg::from_index(zimm as u8), csr }]
        }
        "fence" => {
            expect_ops(ops, 0, m, line)?;
            vec![Inst::Fence]
        }
        "ecall" => {
            expect_ops(ops, 0, m, line)?;
            vec![Inst::Ecall]
        }
        "ebreak" => {
            expect_ops(ops, 0, m, line)?;
            vec![Inst::Ebreak]
        }
        // ---- pseudo-instructions ----
        "nop" => {
            expect_ops(ops, 0, m, line)?;
            vec![Inst::AluImm { op: AluImmOp::Addi, rd: Reg::X0, rs1: Reg::X0, imm: 0 }]
        }
        "li" => {
            expect_ops(ops, 2, m, line)?;
            let rd = parse_reg(op_str(ops, 0, line)?, line)?;
            li_insts(rd, parse_int_op(ops, 1, line)?, line)?
        }
        "la" => {
            expect_ops(ops, 2, m, line)?;
            let rd = parse_reg(op_str(ops, 0, line)?, line)?;
            let sym = op_str(ops, 1, line)?.trim();
            let Some(&target) = symbols.get(sym) else {
                return err(line, format!("unknown label `{sym}`"));
            };
            let delta = target.wrapping_sub(addr) as i64;
            let hi = (delta + 0x800) >> 12;
            if !(-0x80000..=0x7FFFF).contains(&hi) {
                return err(line, format!("`la {sym}` target out of auipc range"));
            }
            let lo = (delta - (hi << 12)) as i32;
            vec![
                Inst::Auipc { rd, imm: hi as i32 },
                Inst::AluImm { op: AluImmOp::Addi, rd, rs1: rd, imm: lo },
            ]
        }
        "mv" => {
            expect_ops(ops, 2, m, line)?;
            let rd = parse_reg(op_str(ops, 0, line)?, line)?;
            let rs1 = parse_reg(op_str(ops, 1, line)?, line)?;
            vec![Inst::AluImm { op: AluImmOp::Addi, rd, rs1, imm: 0 }]
        }
        "not" => {
            expect_ops(ops, 2, m, line)?;
            let rd = parse_reg(op_str(ops, 0, line)?, line)?;
            let rs1 = parse_reg(op_str(ops, 1, line)?, line)?;
            vec![Inst::AluImm { op: AluImmOp::Xori, rd, rs1, imm: -1 }]
        }
        "neg" => {
            expect_ops(ops, 2, m, line)?;
            let rd = parse_reg(op_str(ops, 0, line)?, line)?;
            let rs2 = parse_reg(op_str(ops, 1, line)?, line)?;
            vec![Inst::Alu { op: AluOp::Sub, rd, rs1: Reg::X0, rs2 }]
        }
        "seqz" => {
            expect_ops(ops, 2, m, line)?;
            let rd = parse_reg(op_str(ops, 0, line)?, line)?;
            let rs1 = parse_reg(op_str(ops, 1, line)?, line)?;
            vec![Inst::AluImm { op: AluImmOp::Sltiu, rd, rs1, imm: 1 }]
        }
        "snez" => {
            expect_ops(ops, 2, m, line)?;
            let rd = parse_reg(op_str(ops, 0, line)?, line)?;
            let rs2 = parse_reg(op_str(ops, 1, line)?, line)?;
            vec![Inst::Alu { op: AluOp::Sltu, rd, rs1: Reg::X0, rs2 }]
        }
        "beqz" | "bnez" => {
            expect_ops(ops, 2, m, line)?;
            let rs1 = parse_reg(op_str(ops, 0, line)?, line)?;
            let target = resolve_target(op_str(ops, 1, line)?, addr, symbols, line)?;
            let op = if m == "beqz" { BranchOp::Beq } else { BranchOp::Bne };
            vec![Inst::Branch { op, rs1, rs2: Reg::X0, offset: check_branch_range(target, line)? }]
        }
        "j" => {
            expect_ops(ops, 1, m, line)?;
            let target = resolve_target(op_str(ops, 0, line)?, addr, symbols, line)?;
            vec![Inst::Jal { rd: Reg::X0, offset: check_jal_range(target, line)? }]
        }
        "jr" => {
            expect_ops(ops, 1, m, line)?;
            let rs1 = parse_reg(op_str(ops, 0, line)?, line)?;
            vec![Inst::Jalr { rd: Reg::X0, rs1, offset: 0 }]
        }
        "call" => {
            expect_ops(ops, 1, m, line)?;
            let target = resolve_target(op_str(ops, 0, line)?, addr, symbols, line)?;
            vec![Inst::Jal { rd: Reg::X1, offset: check_jal_range(target, line)? }]
        }
        "ret" => {
            expect_ops(ops, 0, m, line)?;
            vec![Inst::Jalr { rd: Reg::X0, rs1: Reg::X1, offset: 0 }]
        }
        _ => match encode_op(m, ops, line, addr, symbols)? {
            Some(inst) => vec![inst],
            None => return err(line, format!("unknown mnemonic `{m}`")),
        },
    };
    Ok(insts.iter().map(encode).collect())
}

/// Encodes a statement whose mnemonic names an op of one of the op
/// enums (`BranchOp` … `CsrOp`), which spell their own mnemonics;
/// `Ok(None)` when it names none.
fn encode_op(
    m: &str,
    ops: &[String],
    line: usize,
    addr: u64,
    symbols: &BTreeMap<String, u64>,
) -> Result<Option<Inst>, AsmError> {
    // `rd, rs1, rs2`, all integer registers.
    let int3 = || -> Result<[Reg; 3], AsmError> {
        expect_ops(ops, 3, m, line)?;
        let reg = |i| parse_reg(op_str(ops, i, line)?, line);
        Ok([reg(0)?, reg(1)?, reg(2)?])
    };
    let inst = if let Some(op) = BranchOp::from_mnemonic(m) {
        expect_ops(ops, 3, m, line)?;
        let rs1 = parse_reg(op_str(ops, 0, line)?, line)?;
        let rs2 = parse_reg(op_str(ops, 1, line)?, line)?;
        let target = resolve_target(op_str(ops, 2, line)?, addr, symbols, line)?;
        Inst::Branch { op, rs1, rs2, offset: check_branch_range(target, line)? }
    } else if let Some(op) = LoadOp::from_mnemonic(m) {
        expect_ops(ops, 2, m, line)?;
        let rd = parse_reg(op_str(ops, 0, line)?, line)?;
        let (offset, rs1) = parse_mem(op_str(ops, 1, line)?, line)?;
        Inst::Load { op, rd, rs1, offset }
    } else if let Some(op) = StoreOp::from_mnemonic(m) {
        expect_ops(ops, 2, m, line)?;
        let rs2 = parse_reg(op_str(ops, 0, line)?, line)?;
        let (offset, rs1) = parse_mem(op_str(ops, 1, line)?, line)?;
        Inst::Store { op, rs1, rs2, offset }
    } else if let Some(op) = AluImmOp::from_mnemonic(m) {
        expect_ops(ops, 3, m, line)?;
        let rd = parse_reg(op_str(ops, 0, line)?, line)?;
        let rs1 = parse_reg(op_str(ops, 1, line)?, line)?;
        let v = parse_int_op(ops, 2, line)?;
        let imm = match op {
            AluImmOp::Slli | AluImmOp::Srli | AluImmOp::Srai => check_shamt(v, 63, line)?,
            AluImmOp::Slliw | AluImmOp::Srliw | AluImmOp::Sraiw => check_shamt(v, 31, line)?,
            _ => check_i12(v, line)?,
        };
        Inst::AluImm { op, rd, rs1, imm }
    } else if let Some(op) = AluOp::from_mnemonic(m) {
        let [rd, rs1, rs2] = int3()?;
        Inst::Alu { op, rd, rs1, rs2 }
    } else if let Some(op) = MulDivOp::from_mnemonic(m) {
        let [rd, rs1, rs2] = int3()?;
        Inst::MulDiv { op, rd, rs1, rs2 }
    } else if let Some(op) = FpOp::from_mnemonic(m) {
        // `fsqrt.d` is unary: its rs2 field is zero.
        let unary = op == FpOp::FsqrtD;
        expect_ops(ops, if unary { 2 } else { 3 }, m, line)?;
        let rd = parse_freg(op_str(ops, 0, line)?, line)?;
        let rs1 = parse_freg(op_str(ops, 1, line)?, line)?;
        let rs2 = if unary { FReg::new(0) } else { parse_freg(op_str(ops, 2, line)?, line)? };
        Inst::Fp { op, rd, rs1, rs2 }
    } else if let Some(op) = FpCmpOp::from_mnemonic(m) {
        expect_ops(ops, 3, m, line)?;
        let rd = parse_reg(op_str(ops, 0, line)?, line)?;
        let rs1 = parse_freg(op_str(ops, 1, line)?, line)?;
        let rs2 = parse_freg(op_str(ops, 2, line)?, line)?;
        Inst::FpCmp { op, rd, rs1, rs2 }
    } else if let Some(op) = CsrOp::from_mnemonic(m) {
        expect_ops(ops, 3, m, line)?;
        let rd = parse_reg(op_str(ops, 0, line)?, line)?;
        let csr = check_csr(parse_int_op(ops, 1, line)?, line)?;
        let rs1 = if op.is_imm() {
            let zimm = parse_int_op(ops, 2, line)?;
            if !(0..32).contains(&zimm) {
                return err(line, format!("zimm {zimm} out of range 0..32"));
            }
            Reg::from_index(zimm as u8)
        } else {
            parse_reg(op_str(ops, 2, line)?, line)?
        };
        Inst::Csr { op, rd, rs1, csr }
    } else {
        return Ok(None);
    };
    Ok(Some(inst))
}

#[cfg(test)]
mod tests {
    use super::*;
    use meek_isa::decode;

    fn asm(src: &str) -> Program {
        assemble("t", src).unwrap()
    }

    fn asm_err(src: &str) -> AsmError {
        assemble("t", src).unwrap_err()
    }

    #[test]
    fn basic_encoding_matches_known_words() {
        let p = asm("addi a0, a1, 1\nadd a0, a1, a2\nld a0, 8(sp)\nsd a0, 8(sp)\necall\n");
        assert_eq!(p.code, vec![0x0015_8513, 0x00C5_8533, 0x0081_3503, 0x00A1_3423, 0x0000_0073]);
    }

    #[test]
    fn labels_resolve_forward_and_backward() {
        let p = asm("top:\n  beqz a0, done\n  addi a0, a0, -1\n  j top\ndone:\n  ret\n");
        // beqz +12 to done; j -8 back to top.
        assert_eq!(
            decode(p.code[0]).unwrap(),
            Inst::Branch { op: BranchOp::Beq, rs1: Reg::X10, rs2: Reg::X0, offset: 12 }
        );
        assert_eq!(decode(p.code[2]).unwrap(), Inst::Jal { rd: Reg::X0, offset: -8 });
        assert_eq!(p.symbols["top"], p.code_base);
        assert_eq!(p.symbols["done"], p.code_base + 12);
    }

    #[test]
    fn li_expansion_sizes() {
        assert_eq!(asm("li a0, 5").code.len(), 1);
        assert_eq!(asm("li a0, -2048").code.len(), 1);
        assert_eq!(asm("li a0, 0x1000").code.len(), 1, "page-aligned gets a bare lui");
        assert_eq!(asm("li a0, 0x12345").code.len(), 2);
        assert_eq!(asm("li a0, -123456").code.len(), 2);
        let e = asm_err("li a0, 0x100000000");
        assert!(e.msg.contains("64 bits"), "{e}");
    }

    #[test]
    fn li_lui_addi_pair_reconstructs_value() {
        for &v in &[0x12345i64, -0x12345, 0x7FFF_F7FF, -0x8000_0000, 4097, -4097] {
            let p = asm(&format!("li t0, {v}"));
            let mut acc: i64 = 0;
            for w in &p.code {
                match decode(*w).unwrap() {
                    Inst::Lui { imm, .. } => acc = (imm as i64) << 12,
                    Inst::AluImm { op: AluImmOp::Addi, imm, .. } => acc += imm as i64,
                    other => panic!("unexpected li expansion {other:?}"),
                }
            }
            assert_eq!(acc, v, "li {v:#x}");
        }
    }

    #[test]
    fn la_is_pc_relative_auipc_addi() {
        let p = asm(".data\nbuf:\n  .zero 8\n.text\nmain:\n  la a0, buf\n  ret\n");
        let target = p.symbols["buf"];
        let (hi, lo) = match (decode(p.code[0]).unwrap(), decode(p.code[1]).unwrap()) {
            (Inst::Auipc { rd: Reg::X10, imm: hi }, Inst::AluImm { imm: lo, .. }) => (hi, lo),
            other => panic!("unexpected la expansion {other:?}"),
        };
        let got =
            p.code_base.wrapping_add(((hi as i64) << 12) as u64).wrapping_add(lo as i64 as u64);
        assert_eq!(got, target);
    }

    #[test]
    fn data_directives_lay_out_bytes() {
        let p = asm(concat!(
            ".data\n",
            "a: .byte 1, 2, 255\n",
            "b: .half 0x1234\n",
            "c: .word 0xdeadbeef\n",
            "d: .dword 0x1122334455667788\n",
            "s: .asciz \"hi\\n\"\n",
            "z: .zero 3\n",
        ));
        assert_eq!(p.symbols["a"], p.data_base);
        assert_eq!(p.symbols["b"], p.data_base + 4, ".half aligns to 2 after 3 bytes");
        assert_eq!(p.symbols["c"], p.data_base + 8);
        assert_eq!(p.symbols["d"], p.data_base + 16);
        assert_eq!(&p.data[..3], &[1, 2, 255]);
        assert_eq!(&p.data[8..12], &0xdead_beefu32.to_le_bytes());
        assert_eq!(&p.data[16..24], &0x1122_3344_5566_7788u64.to_le_bytes());
        assert_eq!(&p.data[24..27], b"hi\n");
        assert_eq!(p.data[27], 0, ".asciz NUL");
    }

    #[test]
    fn data_words_can_name_labels() {
        let p = asm(".data\nptr: .dword msg\nmsg: .asciz \"x\"\n");
        let ptr = u64::from_le_bytes(p.data[..8].try_into().unwrap());
        assert_eq!(ptr, p.symbols["msg"]);
    }

    #[test]
    fn raw_word_in_text_passes_through() {
        let p = asm(".word 0xdeadbeef\n");
        assert_eq!(p.code, vec![0xDEAD_BEEF]);
    }

    #[test]
    fn csr_and_system_forms() {
        let p = asm("csrr t0, 0xc02\ncsrw 0x7c0, a0\ncsrrwi t1, 0x340, 5\nfence\nebreak\n");
        assert_eq!(
            decode(p.code[0]).unwrap(),
            Inst::Csr { op: CsrOp::Rs, rd: Reg::X5, rs1: Reg::X0, csr: 0xC02 }
        );
        assert_eq!(
            decode(p.code[1]).unwrap(),
            Inst::Csr { op: CsrOp::Rw, rd: Reg::X0, rs1: Reg::X10, csr: 0x7C0 }
        );
        assert_eq!(
            decode(p.code[2]).unwrap(),
            Inst::Csr { op: CsrOp::Rwi, rd: Reg::X6, rs1: Reg::X5, csr: 0x340 }
        );
    }

    #[test]
    fn comments_and_char_literals() {
        let p = asm("li a0, 'A' # load 65\nli a1, '\\n' // newline\nnop ; trailing\n");
        assert_eq!(
            decode(p.code[0]).unwrap(),
            Inst::AluImm { op: AluImmOp::Addi, rd: Reg::X10, rs1: Reg::X0, imm: 65 }
        );
        assert_eq!(
            decode(p.code[1]).unwrap(),
            Inst::AluImm { op: AluImmOp::Addi, rd: Reg::X11, rs1: Reg::X0, imm: 10 }
        );
        let p = asm(".data\ns: .ascii \"a#b;c\"\n");
        assert_eq!(&p.data, b"a#b;c", "comment chars inside strings survive");
    }

    #[test]
    fn error_cases_carry_line_numbers() {
        assert_eq!(asm_err("addi a0, a1").line, 1);
        assert_eq!(asm_err("\nbogus a0\n").line, 2);
        assert!(asm_err("addi a0, a1, 4096").msg.contains("out of i12"));
        assert!(asm_err("beq a0, a1, 3").msg.contains("out of range"), "odd branch offset");
        assert!(asm_err("j nowhere").msg.contains("unknown label"));
        assert!(asm_err("x: nop\nx: nop\n").msg.contains("duplicate label"));
        assert!(asm_err("addi a9, a0, 0").msg.contains("unknown register"));
        assert!(asm_err(".data\n.word 0x100000000\n").msg.contains("does not fit"));
    }

    #[test]
    fn lui_accepts_raw_20_bit_field_values() {
        // The disassembler prints `lui rd, 0xfffff` for imm = -1.
        let p = asm("lui a0, 0xfffff\n");
        assert_eq!(decode(p.code[0]).unwrap(), Inst::Lui { rd: Reg::X10, imm: -1 });
    }

    #[test]
    fn fp_forms_round_trip_through_decode() {
        let p = asm(concat!(
            "fld f1, 0(a0)\n",
            "fsd f1, 8(a0)\n",
            "fadd.d f2, f1, f1\n",
            "fsqrt.d f3, f2\n",
            "fmadd.d f4, f1, f2, f3\n",
            "feq.d t0, f1, f2\n",
            "fcvt.d.l f5, t1\n",
            "fcvt.l.d t2, f5\n",
            "fmv.x.d t3, f1\n",
            "fmv.d.x f6, t3\n",
        ));
        assert_eq!(p.code.len(), 10);
        for w in &p.code {
            decode(*w).expect("all fp forms decode");
        }
    }
}
