/**
 * @file
 * Conventional DRAM command set. Row-granularity commands (RD_row / WR_row)
 * are defined in rome/rome_command.h; the command generator lowers them into
 * the commands defined here.
 */

#ifndef ROME_DRAM_COMMAND_H
#define ROME_DRAM_COMMAND_H

#include <string_view>

#include "dram/address.h"

namespace rome
{

/** Conventional (column-granularity) DRAM commands. */
enum class CmdKind : int
{
    Act,    ///< Activate a row into the row buffer.
    Pre,    ///< Precharge one bank.
    Rd,     ///< Column read (one AG_MC burst per PC).
    Wr,     ///< Column write.
    RefPb,  ///< Per-bank refresh (blocks one bank).
    NumKinds
};

inline constexpr int kNumCmdKinds = static_cast<int>(CmdKind::NumKinds);

/** Short mnemonic for traces and error messages. */
constexpr std::string_view
cmdName(CmdKind k)
{
    switch (k) {
      case CmdKind::Act: return "ACT";
      case CmdKind::Pre: return "PRE";
      case CmdKind::Rd: return "RD";
      case CmdKind::Wr: return "WR";
      case CmdKind::RefPb: return "REFpb";
      default: return "?";
    }
}

/** True for column-bus commands (RD/WR). */
constexpr bool
isColCmd(CmdKind k)
{
    return k == CmdKind::Rd || k == CmdKind::Wr;
}

/** A command addressed to one channel. */
struct Command
{
    CmdKind kind = CmdKind::Act;
    DramAddress addr;

    std::string
    str() const
    {
        return std::string(cmdName(kind)) + " " + addr.str();
    }
};

} // namespace rome

#endif // ROME_DRAM_COMMAND_H
