//===- optabs/optabs.h - The public optabs API surface ---------*- C++ -*-===//
//
// Part of the optabs project, a reproduction of "Finding Optimum
// Abstractions in Parametric Dataflow Analysis" (PLDI 2013).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The one header embedders include. Everything reachable from here is the
/// supported surface; headers under src/ that this file does not pull in
/// are internal and may change without notice (DESIGN.md §9 lists the
/// boundary explicitly). The tools in tools/ and the reporting harness
/// build exclusively against this header, which keeps the boundary honest:
/// anything they need has to be exported here first.
///
/// The surface, by layer:
///
///  * optabs::Config (+ ConfigError) - the unified configuration surface:
///    nested Execution / Budgets / Observability / Audit / Service
///    sections, validate(), and the single precedence chain
///    explicit > OPTABS_* environment > defaults (Config::fromEnv).
///  * optabs::support::ArgParser - the shared command-line parser, so
///    every tool rejects unknown flags and malformed values identically.
///  * optabs::ir - the mini-IR: Program, parseProgram, printProgram.
///  * optabs::pointer / escape / typestate - the analysis clients, plus
///    the textual type-state property grammar (typestate/Properties.h).
///  * optabs::tracer - QueryDriver (constructed from a Config),
///    Verdict/QueryOutcome, the certificate checker, and the versioned
///    JSONL event trace.
///  * optabs::service - the client table (ClientTraits, PerClient,
///    forEachClient: how each client runs), AnalysisService, Session,
///    QueryResult, and the versioned JSONL request/response protocol of
///    optabs-serve.
///
//===----------------------------------------------------------------------===//

#ifndef OPTABS_OPTABS_H
#define OPTABS_OPTABS_H

// Configuration and tool-support layer.
#include "support/Args.h"
#include "support/Budget.h"
#include "support/Config.h"
#include "support/FaultInjection.h"
#include "support/Metrics.h"

// The mini-IR and its textual format.
#include "ir/Parser.h"
#include "ir/Printer.h"
#include "ir/Program.h"

// Analysis clients.
#include "escape/Escape.h"
#include "pointer/PointsTo.h"
#include "typestate/Properties.h"
#include "typestate/Typestate.h"

// The TRACER engine: driver, verdicts, certificates, event trace.
#include "tracer/Certificates.h"
#include "tracer/EventTrace.h"
#include "tracer/QueryDriver.h"

// The client table, the multi-tenant analysis service and its wire
// protocol.
#include "service/AnalysisService.h"
#include "service/Clients.h"
#include "service/Protocol.h"

#endif // OPTABS_OPTABS_H
