#include "src/vm/disasm.h"

#include <algorithm>
#include <set>

#include "src/support/strings.h"

namespace ddt {

std::string DisassembleInstruction(const Instruction& insn) {
  const char* m = OpcodeMnemonic(insn.opcode);
  auto rd = [&] { return RegisterName(insn.rd); };
  auto ra = [&] { return RegisterName(insn.ra); };
  auto rb = [&] { return RegisterName(insn.rb); };
  switch (insn.opcode) {
    case Opcode::kNop:
    case Opcode::kHalt:
    case Opcode::kRet:
      return m;
    case Opcode::kMov:
    case Opcode::kNot:
    case Opcode::kNeg:
      return StrFormat("%s %s, %s", m, rd().c_str(), ra().c_str());
    case Opcode::kMovI:
      return StrFormat("%s %s, 0x%x", m, rd().c_str(), insn.imm);
    case Opcode::kAdd:
    case Opcode::kSub:
    case Opcode::kMul:
    case Opcode::kUDiv:
    case Opcode::kSDiv:
    case Opcode::kURem:
    case Opcode::kAnd:
    case Opcode::kOr:
    case Opcode::kXor:
    case Opcode::kShl:
    case Opcode::kLShr:
    case Opcode::kAShr:
    case Opcode::kSeq:
    case Opcode::kSne:
    case Opcode::kSltU:
    case Opcode::kSltS:
    case Opcode::kSleU:
    case Opcode::kSleS:
      return StrFormat("%s %s, %s, %s", m, rd().c_str(), ra().c_str(), rb().c_str());
    case Opcode::kAddI:
    case Opcode::kSubI:
    case Opcode::kMulI:
    case Opcode::kUDivI:
    case Opcode::kAndI:
    case Opcode::kOrI:
    case Opcode::kXorI:
    case Opcode::kShlI:
    case Opcode::kLShrI:
    case Opcode::kAShrI:
    case Opcode::kSeqI:
    case Opcode::kSneI:
    case Opcode::kSltUI:
    case Opcode::kSltSI:
    case Opcode::kSleUI:
    case Opcode::kSleSI:
      return StrFormat("%s %s, %s, 0x%x", m, rd().c_str(), ra().c_str(), insn.imm);
    case Opcode::kLd8U:
    case Opcode::kLd8S:
    case Opcode::kLd16U:
    case Opcode::kLd16S:
    case Opcode::kLd32:
      return StrFormat("%s %s, [%s+0x%x]", m, rd().c_str(), ra().c_str(), insn.imm);
    case Opcode::kSt8:
    case Opcode::kSt16:
    case Opcode::kSt32:
      return StrFormat("%s [%s+0x%x], %s", m, ra().c_str(), insn.imm, rb().c_str());
    case Opcode::kBr:
    case Opcode::kCall:
      return StrFormat("%s 0x%x", m, insn.imm);
    case Opcode::kBz:
    case Opcode::kBnz:
      return StrFormat("%s %s, 0x%x", m, ra().c_str(), insn.imm);
    case Opcode::kJr:
    case Opcode::kCallR:
      return StrFormat("%s %s", m, ra().c_str());
    case Opcode::kPush:
      return StrFormat("%s %s", m, rb().c_str());
    case Opcode::kPop:
      return StrFormat("%s %s", m, rd().c_str());
    case Opcode::kKCall:
      return StrFormat("%s #%u", m, insn.imm);
    default:
      return StrFormat("<bad opcode %u>", static_cast<unsigned>(insn.opcode));
  }
}

Cfg BuildCfg(const uint8_t* code, size_t size, uint32_t base) {
  Cfg cfg;
  cfg.base = base;
  uint32_t end = base + static_cast<uint32_t>(size);
  size_t count = size / kInstructionSize;

  auto decode_at = [&](uint32_t addr) -> std::optional<Instruction> {
    if (addr < base || addr + kInstructionSize > end ||
        (addr - base) % kInstructionSize != 0) {
      return std::nullopt;
    }
    return DecodeInstruction(code + (addr - base));
  };

  // Pass 1: find leaders.
  std::set<uint32_t> leaders;
  leaders.insert(base);
  std::set<uint32_t> call_targets;
  for (size_t i = 0; i < count; ++i) {
    uint32_t addr = base + static_cast<uint32_t>(i) * kInstructionSize;
    std::optional<Instruction> insn = DecodeInstruction(code + i * kInstructionSize);
    if (!insn.has_value()) {
      leaders.insert(addr + kInstructionSize);
      continue;
    }
    switch (insn->opcode) {
      case Opcode::kBr:
        leaders.insert(insn->imm);
        leaders.insert(addr + kInstructionSize);
        break;
      case Opcode::kBz:
      case Opcode::kBnz:
        leaders.insert(insn->imm);
        leaders.insert(addr + kInstructionSize);
        break;
      case Opcode::kCall:
        call_targets.insert(insn->imm);
        leaders.insert(insn->imm);
        leaders.insert(addr + kInstructionSize);
        break;
      case Opcode::kJr:
      case Opcode::kCallR:
      case Opcode::kRet:
      case Opcode::kHalt:
        leaders.insert(addr + kInstructionSize);
        break;
      default:
        break;
    }
  }

  // Pass 2: materialize blocks between consecutive leaders.
  std::vector<uint32_t> sorted_leaders;
  for (uint32_t leader : leaders) {
    if (leader >= base && leader < end) {
      sorted_leaders.push_back(leader);
    }
  }
  std::sort(sorted_leaders.begin(), sorted_leaders.end());

  for (size_t i = 0; i < sorted_leaders.size(); ++i) {
    uint32_t begin = sorted_leaders[i];
    uint32_t limit = i + 1 < sorted_leaders.size() ? sorted_leaders[i + 1] : end;
    BasicBlock block;
    block.begin = begin;
    uint32_t addr = begin;
    while (addr < limit) {
      std::optional<Instruction> insn = decode_at(addr);
      addr += kInstructionSize;
      if (!insn.has_value()) {
        block.ends_in_halt = true;
        break;
      }
      if (IsTerminator(insn->opcode)) {
        switch (insn->opcode) {
          case Opcode::kBr:
            block.successors.push_back(insn->imm);
            break;
          case Opcode::kBz:
          case Opcode::kBnz:
            block.successors.push_back(insn->imm);
            block.successors.push_back(addr);  // fallthrough
            break;
          case Opcode::kCall:
            block.successors.push_back(insn->imm);
            block.successors.push_back(addr);  // return continuation
            break;
          case Opcode::kJr:
          case Opcode::kCallR:
            block.has_indirect_successor = true;
            break;
          case Opcode::kRet:
            block.ends_in_return = true;
            break;
          case Opcode::kHalt:
            block.ends_in_halt = true;
            break;
          default:
            break;
        }
        break;
      }
    }
    block.end = addr;
    if (addr >= limit && !block.ends_in_return && !block.ends_in_halt &&
        block.successors.empty() && !block.has_indirect_successor && addr < end) {
      block.successors.push_back(addr);  // plain fallthrough into next leader
    }
    cfg.blocks.emplace(begin, std::move(block));
  }

  cfg.call_targets.assign(call_targets.begin(), call_targets.end());
  return cfg;
}

std::string DisassembleSegment(const uint8_t* code, size_t size, uint32_t base) {
  Cfg cfg = BuildCfg(code, size, base);
  std::string out;
  for (size_t i = 0; i * kInstructionSize + kInstructionSize <= size; ++i) {
    uint32_t addr = base + static_cast<uint32_t>(i * kInstructionSize);
    if (cfg.blocks.count(addr) != 0) {
      out += StrFormat("\n%08x <block>:\n", addr);
    }
    std::optional<Instruction> insn = DecodeInstruction(code + i * kInstructionSize);
    if (insn.has_value()) {
      out += StrFormat("  %08x:  %s\n", addr, DisassembleInstruction(*insn).c_str());
    } else {
      out += StrFormat("  %08x:  <invalid %s>\n", addr,
                       HexBytes(code + i * kInstructionSize, kInstructionSize).c_str());
    }
  }
  return out;
}

}  // namespace ddt
