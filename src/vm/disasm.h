// Disassembler and static CFG recovery for DVM32 code.
//
// Used three ways:
//   - basic-block identification for the coverage counters behind Figures 2
//     and 3 (the engine marks a block covered when its leader executes),
//   - the SDV-like static-analysis baseline, which runs dataflow over this
//     CFG without ever executing the driver,
//   - human-readable listings in bug reports and tests.
#ifndef SRC_VM_DISASM_H_
#define SRC_VM_DISASM_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "src/vm/isa.h"

namespace ddt {

// Renders one instruction, e.g. "addi r2, r1, 0x4".
std::string DisassembleInstruction(const Instruction& insn);

struct BasicBlock {
  uint32_t begin = 0;  // address of the leader instruction
  uint32_t end = 0;    // exclusive (address just past the last instruction)
  std::vector<uint32_t> successors;
  bool has_indirect_successor = false;  // ends in jr/callr (unknown target)
  bool ends_in_return = false;
  bool ends_in_halt = false;

  size_t NumInstructions() const { return (end - begin) / kInstructionSize; }
};

struct Cfg {
  uint32_t base = 0;
  std::map<uint32_t, BasicBlock> blocks;  // keyed by leader address
  std::vector<uint32_t> call_targets;     // static call destinations (deduped)

  size_t NumBlocks() const { return blocks.size(); }
};

// Recovers the CFG of a code segment loaded at `base`. Decoding failures
// terminate the affected block (treated like halt).
Cfg BuildCfg(const uint8_t* code, size_t size, uint32_t base);

// Renders a full listing with addresses and block boundaries.
std::string DisassembleSegment(const uint8_t* code, size_t size, uint32_t base);

}  // namespace ddt

#endif  // SRC_VM_DISASM_H_
