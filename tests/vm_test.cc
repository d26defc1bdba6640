// Tests for the VM substrate: ISA encode/decode round-trips, the assembler,
// DDF image serialization, CFG recovery, and chained-COW guest memory
// semantics (including fork isolation, shared image roots and the eager
// ablation mode).
#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <thread>
#include <vector>

#include "src/expr/expr.h"
#include "src/support/check.h"
#include "src/support/rng.h"
#include "src/support/strings.h"
#include "src/vm/assembler.h"
#include "src/vm/disasm.h"
#include "src/vm/guest_memory.h"
#include "src/vm/image.h"
#include "src/vm/isa.h"
#include "src/vm/layout.h"

namespace ddt {
namespace {

// --- ISA ----------------------------------------------------------------------

TEST(IsaTest, EncodeDecodeRoundTripsAllOpcodes) {
  Rng rng(5);
  for (int op = 0; op < static_cast<int>(Opcode::kOpcodeCount); ++op) {
    Instruction insn;
    insn.opcode = static_cast<Opcode>(op);
    insn.rd = static_cast<uint8_t>(rng.NextBelow(kNumRegisters));
    insn.ra = static_cast<uint8_t>(rng.NextBelow(kNumRegisters));
    insn.rb = static_cast<uint8_t>(rng.NextBelow(kNumRegisters));
    insn.imm = rng.Next32();
    uint8_t bytes[kInstructionSize];
    EncodeInstruction(insn, bytes);
    std::optional<Instruction> decoded = DecodeInstruction(bytes);
    ASSERT_TRUE(decoded.has_value()) << "opcode " << op;
    EXPECT_EQ(decoded->opcode, insn.opcode);
    EXPECT_EQ(decoded->rd, insn.rd);
    EXPECT_EQ(decoded->ra, insn.ra);
    EXPECT_EQ(decoded->rb, insn.rb);
    EXPECT_EQ(decoded->imm, insn.imm);
  }
}

TEST(IsaTest, InvalidOpcodeRejected) {
  uint8_t bytes[kInstructionSize] = {0xFF, 0, 0, 0, 0, 0, 0, 0};
  EXPECT_FALSE(DecodeInstruction(bytes).has_value());
}

TEST(IsaTest, InvalidRegisterRejected) {
  uint8_t bytes[kInstructionSize] = {static_cast<uint8_t>(Opcode::kMov), 17, 0, 0, 0, 0, 0, 0};
  EXPECT_FALSE(DecodeInstruction(bytes).has_value());
}

TEST(IsaTest, MnemonicRoundTrip) {
  for (int op = 0; op < static_cast<int>(Opcode::kOpcodeCount); ++op) {
    Opcode opcode = static_cast<Opcode>(op);
    std::optional<Opcode> back = OpcodeFromMnemonic(OpcodeMnemonic(opcode));
    ASSERT_TRUE(back.has_value());
    EXPECT_EQ(*back, opcode);
  }
}

TEST(IsaTest, RegisterNames) {
  EXPECT_EQ(RegisterName(kRegSp), "sp");
  EXPECT_EQ(RegisterName(kRegLr), "lr");
  EXPECT_EQ(RegisterName(kRegZero), "zr");
  EXPECT_EQ(RegisterFromName("sp"), kRegSp);
  EXPECT_EQ(RegisterFromName("r7"), 7);
  EXPECT_EQ(RegisterFromName("r16"), -1);
  EXPECT_EQ(RegisterFromName("bogus"), -1);
}

// --- Assembler -------------------------------------------------------------------

TEST(AssemblerTest, MinimalDriverAssembles) {
  const char* source = R"(
    .driver "toy"
    .entry main
    .code
  main:
    movi r0, 42
    halt
  )";
  Result<AssembledDriver> result = Assemble(source);
  ASSERT_TRUE(result.ok()) << result.error();
  const DriverImage& image = result.value().image;
  EXPECT_EQ(image.name, "toy");
  EXPECT_EQ(image.code.size(), 2 * kInstructionSize);
  EXPECT_EQ(image.entry_offset, 0u);
}

TEST(AssemblerTest, LabelsResolveAcrossSections) {
  const char* source = R"(
    .driver "toy"
    .entry main
    .code
  main:
    la r0, message
    ld32 r1, [r0+0]
    halt
    .data
  message:
    .word 0xCAFEBABE
  )";
  Result<AssembledDriver> result = Assemble(source, 0x10000);
  ASSERT_TRUE(result.ok()) << result.error();
  const AssembledDriver& drv = result.value();
  // message lives right after 3 instructions of code.
  EXPECT_EQ(drv.symbols.at("message"), 0x10000u + 3 * kInstructionSize);
  // The la (movi) immediate must match.
  std::optional<Instruction> insn = DecodeInstruction(drv.image.code.data());
  ASSERT_TRUE(insn.has_value());
  EXPECT_EQ(insn->opcode, Opcode::kMovI);
  EXPECT_EQ(insn->imm, drv.symbols.at("message"));
}

TEST(AssemblerTest, KcallBuildsImportTable) {
  const char* source = R"(
    .driver "toy"
    .entry main
    .code
  main:
    kcall MosAllocatePool
    kcall MosFreePool
    kcall MosAllocatePool
    halt
  )";
  Result<AssembledDriver> result = Assemble(source);
  ASSERT_TRUE(result.ok()) << result.error();
  const DriverImage& image = result.value().image;
  ASSERT_EQ(image.imports.size(), 2u);
  EXPECT_EQ(image.imports[0], "MosAllocatePool");
  EXPECT_EQ(image.imports[1], "MosFreePool");
  // Third kcall reuses index 0.
  std::optional<Instruction> third =
      DecodeInstruction(image.code.data() + 2 * kInstructionSize);
  ASSERT_TRUE(third.has_value());
  EXPECT_EQ(third->imm, 0u);
}

TEST(AssemblerTest, MultiPushPopExpandsAndReverses) {
  const char* source = R"(
    .driver "toy"
    .entry main
    .code
  main:
    push {r4, r5, lr}
    pop {r4, r5, lr}
    ret
  )";
  Result<AssembledDriver> result = Assemble(source);
  ASSERT_TRUE(result.ok()) << result.error();
  const DriverImage& image = result.value().image;
  ASSERT_EQ(image.code.size(), 7 * kInstructionSize);
  auto at = [&](size_t i) { return *DecodeInstruction(image.code.data() + i * kInstructionSize); };
  EXPECT_EQ(at(0).opcode, Opcode::kPush);
  EXPECT_EQ(at(0).rb, 4);
  EXPECT_EQ(at(1).rb, 5);
  EXPECT_EQ(at(2).rb, kRegLr);
  // pop reverses: lr, r5, r4.
  EXPECT_EQ(at(3).opcode, Opcode::kPop);
  EXPECT_EQ(at(3).rd, kRegLr);
  EXPECT_EQ(at(4).rd, 5);
  EXPECT_EQ(at(5).rd, 4);
}

TEST(AssemblerTest, FuncDirectiveCounts) {
  const char* source = R"(
    .driver "toy"
    .entry main
    .code
    .func main
    call helper
    halt
    .func helper
    ret
  )";
  Result<AssembledDriver> result = Assemble(source);
  ASSERT_TRUE(result.ok()) << result.error();
  EXPECT_EQ(result.value().functions.size(), 2u);
}

TEST(AssemblerTest, DataDirectives) {
  const char* source = R"(
    .driver "toy"
    .entry main
    .code
  main:
    halt
    .data
  bytes:
    .byte 1, 2, 3
    .align 4
  words:
    .word 0x11223344
  text:
    .asciiz "hi"
  pad:
    .space 5
  )";
  Result<AssembledDriver> result = Assemble(source);
  ASSERT_TRUE(result.ok()) << result.error();
  const std::vector<uint8_t>& data = result.value().image.data;
  ASSERT_EQ(data.size(), 3u + 1u /*align*/ + 4u + 3u + 5u);
  EXPECT_EQ(data[0], 1);
  EXPECT_EQ(data[4], 0x44);
  EXPECT_EQ(data[7], 0x11);
  EXPECT_EQ(data[8], 'h');
  EXPECT_EQ(data[10], 0);
}

TEST(AssemblerTest, ErrorsCarryLineNumbers) {
  const char* source = ".driver \"x\"\n.entry main\n.code\nmain:\n  bogus r0, r1\n  halt\n";
  Result<AssembledDriver> result = Assemble(source);
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.error().find("line 5"), std::string::npos) << result.error();
}

TEST(AssemblerTest, UndefinedLabelIsError) {
  const char* source = ".driver \"x\"\n.entry main\n.code\nmain:\n  br nowhere\n";
  Result<AssembledDriver> result = Assemble(source);
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.error().find("nowhere"), std::string::npos);
}

TEST(AssemblerTest, DuplicateLabelIsError) {
  const char* source = ".driver \"x\"\n.entry a\n.code\na:\n  halt\na:\n  halt\n";
  EXPECT_FALSE(Assemble(source).ok());
}

TEST(AssemblerTest, MissingEntryIsError) {
  EXPECT_FALSE(Assemble(".driver \"x\"\n.code\nmain:\n halt\n").ok());
}

// --- Image ------------------------------------------------------------------------

TEST(ImageTest, SerializeParseRoundTrip) {
  DriverImage image;
  image.name = "rtl8029";
  image.entry_offset = 8;
  image.code = {1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16};
  image.data = {0xAA, 0xBB};
  image.bss_size = 128;
  image.imports = {"MosAllocatePool", "MosFreePool"};
  std::vector<uint8_t> bytes = image.Serialize();
  EXPECT_EQ(bytes.size(), image.BinaryFileSize());
  Result<DriverImage> parsed = DriverImage::Parse(bytes);
  ASSERT_TRUE(parsed.ok()) << parsed.error();
  EXPECT_EQ(parsed.value().name, image.name);
  EXPECT_EQ(parsed.value().entry_offset, image.entry_offset);
  EXPECT_EQ(parsed.value().code, image.code);
  EXPECT_EQ(parsed.value().data, image.data);
  EXPECT_EQ(parsed.value().bss_size, image.bss_size);
  EXPECT_EQ(parsed.value().imports, image.imports);
}

// .ddf files written by earlier builds must keep loading: the literal pins
// the serialized bytes of a small image.
TEST(ImageTest, SerializeMatchesThePinnedBytes) {
  DriverImage image;
  image.name = "toy";
  image.entry_offset = 1;
  image.code = {0x10, 0x20, 0x30, 0x40};
  image.data = {0xAA, 0xBB};
  image.bss_size = 16;
  image.imports = {"MosAllocatePool"};
  std::vector<uint8_t> bytes = image.Serialize();
  EXPECT_EQ(HexBytes(bytes.data(), bytes.size()),
            "44 44 46 31 01 00 00 00 04 00 00 00 02 00 00 00 10 00 00 00 01 00 00 00 "
            "74 6f 79 00 00 00 00 00 00 00 00 00 00 00 00 00 00 00 00 00 00 00 00 00 "
            "00 00 00 00 00 00 00 00 4d 6f 73 41 6c 6c 6f 63 61 74 65 50 6f 6f 6c 00 "
            "00 00 00 00 00 00 00 00 00 00 00 00 00 00 00 00 10 20 30 40 aa bb");
}

TEST(ImageTest, ParseRejectsGarbage) {
  EXPECT_FALSE(DriverImage::Parse({1, 2, 3}).ok());
  std::vector<uint8_t> bad(100, 0);
  EXPECT_FALSE(DriverImage::Parse(bad).ok());
}

TEST(ImageTest, ParseRejectsTruncatedSegments) {
  DriverImage image;
  image.name = "x";
  image.entry_offset = 0;
  image.code.resize(64, 0);
  std::vector<uint8_t> bytes = image.Serialize();
  bytes.resize(bytes.size() - 10);
  EXPECT_FALSE(DriverImage::Parse(bytes).ok());
}


TEST(ImageTest, ParseNeverCrashesOnRandomBytes) {
  // Robustness fuzz: DriverImage::Parse on arbitrary byte soup must reject
  // gracefully (or accept and produce a structurally valid image), never
  // crash or over-read.
  Rng rng(0xF422);
  for (int round = 0; round < 500; ++round) {
    size_t size = rng.NextBelow(512);
    std::vector<uint8_t> bytes(size);
    for (uint8_t& b : bytes) {
      b = static_cast<uint8_t>(rng.Next());
    }
    if (round % 3 == 0 && size >= 4) {
      // Bias: plant the magic so header parsing goes deeper.
      bytes[0] = 0x44;
      bytes[1] = 0x44;
      bytes[2] = 0x46;
      bytes[3] = 0x31;
    }
    Result<DriverImage> parsed = DriverImage::Parse(bytes);
    if (parsed.ok()) {
      EXPECT_LE(parsed.value().code.size() + parsed.value().data.size(), size);
    }
  }
}

TEST(ImageTest, FileRoundTrip) {
  DriverImage image;
  image.name = "filetest";
  image.entry_offset = 0;
  image.code.resize(32, 0x11);
  image.imports = {"MosLog"};
  std::string path = "/tmp/ddt_image_roundtrip.ddf";
  ASSERT_TRUE(image.SaveFile(path).ok());
  Result<DriverImage> loaded = DriverImage::LoadFile(path);
  ASSERT_TRUE(loaded.ok()) << loaded.error();
  EXPECT_EQ(loaded.value().name, "filetest");
  EXPECT_EQ(loaded.value().code, image.code);
  EXPECT_EQ(loaded.value().imports, image.imports);
  std::remove(path.c_str());
  EXPECT_FALSE(DriverImage::LoadFile(path).ok());  // gone
}

// --- CFG --------------------------------------------------------------------------

TEST(CfgTest, StraightLineIsOneBlock) {
  const char* source = R"(
    .driver "x"
    .entry main
    .code
  main:
    movi r0, 1
    addi r0, r0, 2
    halt
  )";
  AssembledDriver drv = Assemble(source).take();
  Cfg cfg = BuildCfg(drv.image.code.data(), drv.image.code.size(), drv.load_base);
  EXPECT_EQ(cfg.NumBlocks(), 1u);
  EXPECT_TRUE(cfg.blocks.at(drv.load_base).ends_in_halt);
}

TEST(CfgTest, BranchSplitsBlocks) {
  const char* source = R"(
    .driver "x"
    .entry main
    .code
  main:
    movi r0, 1
    bz r0, target
    movi r1, 2
  target:
    halt
  )";
  AssembledDriver drv = Assemble(source).take();
  Cfg cfg = BuildCfg(drv.image.code.data(), drv.image.code.size(), drv.load_base);
  // blocks: [main..bz], [movi r1], [target: halt]
  EXPECT_EQ(cfg.NumBlocks(), 3u);
  const BasicBlock& first = cfg.blocks.at(drv.load_base);
  ASSERT_EQ(first.successors.size(), 2u);
  EXPECT_EQ(first.successors[0], drv.symbols.at("target"));
}

TEST(CfgTest, CallTargetsRecorded) {
  const char* source = R"(
    .driver "x"
    .entry main
    .code
  main:
    call fn
    halt
  fn:
    ret
  )";
  AssembledDriver drv = Assemble(source).take();
  Cfg cfg = BuildCfg(drv.image.code.data(), drv.image.code.size(), drv.load_base);
  ASSERT_EQ(cfg.call_targets.size(), 1u);
  EXPECT_EQ(cfg.call_targets[0], drv.symbols.at("fn"));
}

TEST(CfgTest, BlockLeaderLookup) {
  const char* source = R"(
    .driver "x"
    .entry main
    .code
  main:
    movi r0, 1
    movi r1, 2
    halt
  )";
  AssembledDriver drv = Assemble(source).take();
  Cfg cfg = BuildCfg(drv.image.code.data(), drv.image.code.size(), drv.load_base);
  EXPECT_EQ(cfg.BlockLeaderFor(drv.load_base + kInstructionSize), drv.load_base);
  EXPECT_EQ(cfg.BlockLeaderFor(0x999999), 0u);
}

// --- Guest memory -------------------------------------------------------------------

TEST(GuestMemoryTest, InitAndRead) {
  GuestMemory mem;
  uint8_t data[] = {1, 2, 3, 4};
  mem.InitWrite(0x10000, data, sizeof(data));
  EXPECT_EQ(mem.ReadByte(0x10000).conc, 1);
  EXPECT_EQ(mem.ReadByte(0x10003).conc, 4);
  EXPECT_EQ(mem.ReadByte(0x10004).conc, 0);  // untouched -> 0
}

TEST(GuestMemoryTest, WriteOverridesInit) {
  GuestMemory mem;
  uint8_t data[] = {1};
  mem.InitWrite(0x10000, data, 1);
  mem.WriteByte(0x10000, MemByte::Concrete(9));
  EXPECT_EQ(mem.ReadByte(0x10000).conc, 9);
}

TEST(GuestMemoryTest, SymbolicBytes) {
  ExprContext ctx;
  GuestMemory mem;
  ExprRef v = ctx.Var(8, "b");
  mem.WriteByte(0x2000, MemByte::Symbolic(v));
  MemByte byte = mem.ReadByte(0x2000);
  ASSERT_TRUE(byte.IsSymbolic());
  EXPECT_EQ(byte.sym, v);
}

TEST(GuestMemoryTest, ForkIsolation) {
  GuestMemory mem;
  mem.WriteByte(100, MemByte::Concrete(1));
  GuestMemory child = mem.Fork();
  child.WriteByte(100, MemByte::Concrete(2));
  mem.WriteByte(101, MemByte::Concrete(3));
  EXPECT_EQ(mem.ReadByte(100).conc, 1);
  EXPECT_EQ(child.ReadByte(100).conc, 2);
  EXPECT_EQ(child.ReadByte(101).conc, 0);
  EXPECT_EQ(mem.ReadByte(101).conc, 3);
}

TEST(GuestMemoryTest, SharedImageIsCopyOnWrite) {
  GuestMemory image;
  const uint8_t data[] = {1, 2, 3, 4};
  image.InitWrite(0x10000, data, sizeof(data));

  GuestMemory a = image.ShareImage();
  GuestMemory b = image.ShareImage();
  a.WriteByte(0x10000, MemByte::Concrete(0xAA));
  b.WriteByte(0x10001, MemByte::Concrete(0xBB));
  EXPECT_EQ(a.ReadByte(0x10000).conc, 0xAA);
  EXPECT_EQ(a.ReadByte(0x10001).conc, 2);
  EXPECT_EQ(b.ReadByte(0x10000).conc, 1);
  EXPECT_EQ(b.ReadByte(0x10001).conc, 0xBB);
  for (uint32_t i = 0; i < sizeof(data); ++i) {
    EXPECT_EQ(image.ReadByte(0x10000 + i).conc, data[i]);
  }

  // The root is read-only once shared: installing through a share fails.
  {
    ScopedCheckTrap trap;
    EXPECT_THROW(a.InitWrite(0x10000, data, 1), CheckFailureError);
  }
  EXPECT_EQ(b.ReadByte(0x10000).conc, 1);

  // Shares taken and used on two threads at once: each reads the root while
  // writing only its own delta.
  const GuestMemory& root = image;
  std::atomic<int> mismatches{0};
  std::vector<std::thread> threads;
  for (uint8_t t = 0; t < 2; ++t) {
    threads.emplace_back([&root, &data, &mismatches, t] {
      for (int round = 0; round < 200; ++round) {
        GuestMemory mem = root.ShareImage();
        for (uint32_t i = 0; i < sizeof(data); ++i) {
          mismatches += mem.ReadByte(0x10000 + i).conc != data[i];
          mem.WriteByte(0x10000 + i, MemByte::Concrete(static_cast<uint8_t>(0x80 + t)));
          mismatches += mem.ReadByte(0x10000 + i).conc != 0x80 + t;
        }
        mismatches += mem.ReadByte(0x10004).conc != 0;
      }
    });
  }
  for (std::thread& thread : threads) {
    thread.join();
  }
  EXPECT_EQ(mismatches.load(), 0);
  EXPECT_EQ(image.ReadByte(0x10000).conc, 1);
}

TEST(GuestMemoryTest, ChainResolvesThroughParents) {
  GuestMemory mem;
  mem.WriteByte(50, MemByte::Concrete(7));
  GuestMemory a = mem.Fork();
  GuestMemory b = a.Fork();
  GuestMemory c = b.Fork();
  EXPECT_EQ(c.ReadByte(50).conc, 7);
  EXPECT_GE(c.ChainDepth(), 1u);
}

TEST(GuestMemoryTest, ReadCacheDoesNotShadowWrites) {
  GuestMemory mem;
  mem.WriteByte(10, MemByte::Concrete(1));
  GuestMemory child = mem.Fork();
  EXPECT_EQ(child.ReadByte(10).conc, 1);  // populates leaf cache via chain walk
  child.WriteByte(10, MemByte::Concrete(2));
  EXPECT_EQ(child.ReadByte(10).conc, 2);
}

TEST(GuestMemoryTest, EagerForkMatchesChainedSemantics) {
  Rng rng(7);
  for (int mode = 0; mode < 2; ++mode) {
    GuestMemory mem;
    mem.set_eager_fork(mode == 1);
    mem.WriteByte(0, MemByte::Concrete(11));
    GuestMemory child = mem.Fork();
    child.WriteByte(1, MemByte::Concrete(22));
    GuestMemory grandchild = child.Fork();
    grandchild.WriteByte(0, MemByte::Concrete(33));
    EXPECT_EQ(mem.ReadByte(0).conc, 11);
    EXPECT_EQ(mem.ReadByte(1).conc, 0);
    EXPECT_EQ(child.ReadByte(0).conc, 11);
    EXPECT_EQ(child.ReadByte(1).conc, 22);
    EXPECT_EQ(grandchild.ReadByte(0).conc, 33);
    EXPECT_EQ(grandchild.ReadByte(1).conc, 22);
  }
}

TEST(GuestMemoryTest, RandomizedForkTreeAgainstReferenceModel) {
  // Build a random fork tree and compare every state against a flat
  // std::map reference model.
  Rng rng(4242);
  struct StateModel {
    GuestMemory mem;
    std::map<uint32_t, uint8_t> reference;
  };
  std::vector<StateModel> states;
  states.push_back(StateModel{GuestMemory(), {}});
  for (int step = 0; step < 600; ++step) {
    size_t idx = rng.NextBelow(states.size());
    switch (rng.NextBelow(3)) {
      case 0: {  // write
        uint32_t addr = static_cast<uint32_t>(rng.NextBelow(64));
        uint8_t value = static_cast<uint8_t>(rng.Next());
        states[idx].mem.WriteByte(addr, MemByte::Concrete(value));
        states[idx].reference[addr] = value;
        break;
      }
      case 1: {  // read + verify
        uint32_t addr = static_cast<uint32_t>(rng.NextBelow(64));
        uint8_t expected = 0;
        auto it = states[idx].reference.find(addr);
        if (it != states[idx].reference.end()) {
          expected = it->second;
        }
        ASSERT_EQ(states[idx].mem.ReadByte(addr).conc, expected) << "step " << step;
        break;
      }
      default: {  // fork
        if (states.size() < 24) {
          StateModel child{states[idx].mem.Fork(), states[idx].reference};
          states.push_back(std::move(child));
        }
        break;
      }
    }
  }
  // Final sweep: every state must match its reference exactly.
  for (size_t i = 0; i < states.size(); ++i) {
    for (uint32_t addr = 0; addr < 64; ++addr) {
      uint8_t expected = 0;
      auto it = states[i].reference.find(addr);
      if (it != states[i].reference.end()) {
        expected = it->second;
      }
      ASSERT_EQ(states[i].mem.ReadByte(addr).conc, expected) << "state " << i;
    }
  }
}

TEST(GuestMemoryTest, StatsTrackForks) {
  MemStats stats;
  GuestMemory mem;
  mem.set_stats(&stats);
  mem.WriteByte(1, MemByte::Concrete(1));
  GuestMemory child = mem.Fork();
  EXPECT_EQ(stats.forks, 1u);
  EXPECT_GE(stats.writes, 1u);
}

TEST(GuestMemoryTest, TryReadConcreteFailsOnSymbolic) {
  ExprContext ctx;
  GuestMemory mem;
  uint8_t buf[4];
  mem.WriteConcrete(0x100, reinterpret_cast<const uint8_t*>("abcd"), 4);
  EXPECT_TRUE(mem.TryReadConcrete(0x100, buf, 4));
  EXPECT_EQ(buf[2], 'c');
  mem.WriteByte(0x102, MemByte::Symbolic(ctx.Var(8, "s")));
  EXPECT_FALSE(mem.TryReadConcrete(0x100, buf, 4));
}

// --- Disassembler ----------------------------------------------------------------

TEST(DisasmTest, RendersInstructions) {
  Instruction insn;
  insn.opcode = Opcode::kAddI;
  insn.rd = 2;
  insn.ra = 1;
  insn.imm = 4;
  EXPECT_EQ(DisassembleInstruction(insn), "addi r2, r1, 0x4");
  insn.opcode = Opcode::kLd32;
  EXPECT_EQ(DisassembleInstruction(insn), "ld32 r2, [r1+0x4]");
  insn.opcode = Opcode::kKCall;
  EXPECT_EQ(DisassembleInstruction(insn), "kcall #4");
}

TEST(DisasmTest, SegmentListingContainsEverything) {
  const char* source = R"(
    .driver "x"
    .entry main
    .code
  main:
    movi r0, 7
    bz r0, done
    addi r0, r0, 1
  done:
    halt
  )";
  AssembledDriver drv = Assemble(source).take();
  std::string listing =
      DisassembleSegment(drv.image.code.data(), drv.image.code.size(), drv.load_base);
  EXPECT_NE(listing.find("movi r0, 0x7"), std::string::npos);
  EXPECT_NE(listing.find("halt"), std::string::npos);
  EXPECT_NE(listing.find("<block>"), std::string::npos);
}

}  // namespace
}  // namespace ddt
